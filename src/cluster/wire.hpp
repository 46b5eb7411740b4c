#pragma once
// Intra-cluster wire messages, framed exactly like the client protocol
// (net/wire.hpp): tag byte, varint/svarint fields, crc32c trailer over
// everything preceding it, so a FaultyLink byte flip becomes a clean
// decode failure instead of silent state divergence.
//
// Two deliberate departures from the client codec:
// * Fan-out results carry FULL-PRECISION doubles (bit-cast u64) for
//   distance and relevance. The client-facing ResultsMessage quantizes
//   distance to a 0.1 m float — fine for a phone, fatal for the
//   cross-node merge, whose tie-breaks must reproduce the single-node
//   ranking bit for bit (the chaos oracle compares encoded results
//   byte-identically).
// * Replication batches ship raw WAL record payloads untouched — the
//   primary's CRC-framed upload records are already idempotent via
//   upload_id dedup, so the follower replays them through the ordinary
//   ingest path.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/partition.hpp"
#include "core/fov.hpp"
#include "geo/geodesy.hpp"
#include "retrieval/query.hpp"

namespace svg::cluster {

// Tags continue the net/wire.hpp numbering (1–7 are taken).
inline constexpr std::uint8_t kMsgQueryFanout = 8;
inline constexpr std::uint8_t kMsgFanoutResults = 9;
inline constexpr std::uint8_t kMsgReplicateBatch = 10;
inline constexpr std::uint8_t kMsgReplicateAck = 11;
inline constexpr std::uint8_t kMsgRoutingTable = 12;

/// Router → node: one leg of a scatter-gather query, scoped to the
/// partitions this node serves under the router's table. The node answers
/// only with rows of those partitions, so the legs of one query return
/// disjoint rows and the merge needs no deduplication. The routing epoch
/// is diagnostic only: the partition list, not the node's own view of the
/// table, decides what a leg returns.
///
/// Layout after the tag: epoch, t_start, t_end - t_start, lat, lng,
/// radius, top_n, then the partition list as a count and that many
/// varints — non-empty, strictly ascending. The decoder refuses anything
/// else (empty, unsorted or duplicate list, truncation, trailing bytes);
/// ids beyond the partition count are refused by the node.
struct QueryFanoutMessage {
  std::uint64_t epoch = 0;
  core::TimestampMs t_start = 0;
  core::TimestampMs t_end = 0;
  geo::LatLng center;
  double radius_m = 0.0;
  std::uint32_t top_n = 10;
  std::vector<std::uint32_t> partitions;  ///< sorted, unique, non-empty
};

/// Node → router: the node's exact local top-N, already sorted by
/// retrieval::RankedBefore, with exact doubles (see file comment).
struct FanoutResultsMessage {
  std::uint64_t node = 0;  ///< responding node id
  std::vector<retrieval::RankedResult> results;
};

/// Primary → follower: contiguous WAL records starting at first_seq.
///
/// Fencing (docs/CLUSTER.md): an optional trailing varint carries the
/// shipper's routing epoch, stored as epoch + 1 (non-zero rule). Stale
/// batches are NOT refused — a rejoined demoted primary legitimately
/// ships an old-epoch WAL during resync — but the stamp lets the pair
/// learn each other's epoch over the replication channel, which in an
/// asymmetric partition may be the only link still alive.
struct ReplicateBatchMessage {
  std::uint64_t primary = 0;    ///< shipping node id
  std::uint64_t first_seq = 0;  ///< WAL seq of payloads[0]
  std::uint64_t epoch = 0;      ///< shipper's routing epoch
  bool has_epoch = false;       ///< false = pre-fencing shipper
  std::vector<std::vector<std::uint8_t>> payloads;
};

/// Follower → primary: cursor after applying a batch (monotonic; the
/// shipper takes max() so stale or reordered acks are harmless). The
/// same optional trailing epoch stamp as the batch, carried back.
struct ReplicateAckMessage {
  std::uint64_t follower = 0;
  std::uint64_t applied_seq = 0;
  std::uint64_t epoch = 0;      ///< follower's routing epoch
  bool has_epoch = false;       ///< false = pre-fencing follower
};

/// The full routing state a node (or operator tool) needs to route:
/// partition geometry + the current partition→node map.
struct RoutingTableMessage {
  PartitionConfig partition;
  RoutingTable table;
};

/// The fan-out codec writes into and decodes into caller-owned storage,
/// so a router encoding one leg per node and a node decoding every leg
/// reuse their buffers' capacity instead of allocating per leg. The
/// decoder returns false on any malformed message; `out` is then
/// unspecified.
void encode_query_fanout(const QueryFanoutMessage& m,
                         std::vector<std::uint8_t>& out);
[[nodiscard]] bool decode_query_fanout(std::span<const std::uint8_t> bytes,
                                       QueryFanoutMessage& out);

[[nodiscard]] std::vector<std::uint8_t> encode_fanout_results(
    const FanoutResultsMessage& m);
[[nodiscard]] std::optional<FanoutResultsMessage> decode_fanout_results(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_replicate_batch(
    const ReplicateBatchMessage& m);
[[nodiscard]] std::optional<ReplicateBatchMessage> decode_replicate_batch(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_replicate_ack(
    const ReplicateAckMessage& m);
[[nodiscard]] std::optional<ReplicateAckMessage> decode_replicate_ack(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_routing_table(
    const RoutingTableMessage& m);
[[nodiscard]] std::optional<RoutingTableMessage> decode_routing_table(
    std::span<const std::uint8_t> bytes);

}  // namespace svg::cluster
