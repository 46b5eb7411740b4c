#pragma once
// In-process multi-node cluster harness (docs/CLUSTER.md): N CloudServers
// — each durable in its own subdirectory of data_dir — behind one Router,
// wired together with per-node FaultyLinks so the whole topology runs
// under seeded chaos. The harness owns everything a deployment would
// split across machines: the router↔node request links, the ring
// replication links (node i ships its WAL to node (i+1) mod N), the
// primary-side replication cursors, and the health-probe loop that
// promotes a follower when a node stays dead.
//
// Failure model: fail_node() destroys the server but keeps its WAL
// directory (a crash, not a disk loss); rejoin_node() re-runs recovery
// over that directory. A rejoined node does not reclaim its partitions —
// it resumes shipping its WAL from the follower's acked cursor, which is
// exactly the resync that recovers rows it acked but never replicated
// before the crash. Cluster nodes never checkpoint (the replication
// contract: retiring a WAL segment below a follower's cursor would break
// the chain the shipper reads — see docs/CLUSTER.md).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fence.hpp"
#include "cluster/partition.hpp"
#include "cluster/repair.hpp"
#include "cluster/router.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "store/scrub.hpp"
#include "store/wal.hpp"

namespace svg::cluster {

struct ClusterConfig {
  std::size_t nodes = 3;
  /// Partition geometry. partitions == 0 (the default here, overriding
  /// PartitionConfig's standalone default of 1) resolves to `nodes` —
  /// one home partition per node, the identity routing table.
  PartitionConfig partition = unhomed_partition();

  [[nodiscard]] static PartitionConfig unhomed_partition() {
    PartitionConfig p;
    p.partitions = 0;
    return p;
  }
  index::FovIndexOptions index{};
  retrieval::RetrievalConfig retrieval{};
  /// Per-node admission control (net/admission.hpp). Every node gets the
  /// same config; admission.clock should be the cluster clock when set.
  /// Disabled by default — enabling it makes overloaded nodes answer
  /// sub-uploads with kRetryLater + retry-after, which the router turns
  /// into per-partition deferral instead of whole-attempt failure.
  net::AdmissionConfig admission{};
  /// Root directory; node i lives in data_dir + "/node<i>". Empty = all
  /// nodes in-memory: no replication, no failover (fail = data loss).
  std::string data_dir;
  store::FsyncPolicy fsync = store::FsyncPolicy::kNone;
  /// WAL segment roll size per node (scrub/bit-rot tests shrink this so a
  /// small corpus spans several cold segments).
  std::uint64_t segment_bytes = 8ull << 20;
  /// Journal kReplicationLagged (once per crossing) when a follower falls
  /// this many records behind its primary's WAL tip.
  std::uint64_t lag_alert_records = 64;
  /// Consecutive failed probes before probe_round() promotes.
  std::uint32_t probe_fail_threshold = 3;
  /// Epoch fencing (cluster/fence.hpp): every node gates ingest on
  /// routing-epoch stamps and self-fences after fence_miss_threshold
  /// missed heartbeats — closing the asymmetric-partition split-brain
  /// (probe path dead, client path alive). Off by default so pre-fencing
  /// chaos runs replay byte-identically.
  bool fencing = false;
  /// Missed heartbeats before a node self-fences; kept below
  /// probe_fail_threshold so the victim stops acking before its
  /// partitions are retargeted.
  std::uint32_t fence_miss_threshold = 2;
  /// Fault template for every link; each link perturbs the seed by its
  /// role and node id, so one cluster seed replays the whole topology.
  net::FaultPlan fault;
  bool faulty = false;  ///< wrap the links in FaultyLink
  net::SimClock* clock = nullptr;  ///< for disconnect windows (may be null)
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  [[nodiscard]] Router& router() noexcept { return *router_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  /// The node's server, or nullptr while it is failed.
  [[nodiscard]] net::CloudServer* node(std::size_t i) noexcept {
    return nodes_[i]->server.get();
  }
  [[nodiscard]] bool node_up(std::size_t i) const noexcept {
    return nodes_[i]->up;
  }
  [[nodiscard]] std::string wal_dir(std::size_t i) const;
  /// The node's fence, or nullptr when fencing is off / node is down.
  [[nodiscard]] NodeFence* fence(std::size_t i) noexcept {
    return nodes_[i]->fence.get();
  }
  /// The node's anti-entropy fingerprint book.
  [[nodiscard]] const FingerprintBook& book(std::size_t i) const noexcept {
    return nodes_[i]->book;
  }
  /// The router-side transport into this cluster — lets a test stand up a
  /// SECOND (stale) Router against the same nodes to drive split-brain
  /// scenarios.
  [[nodiscard]] NodeExchange exchange_fn();

  /// Simulate an asymmetric partition: the probe/heartbeat path to node i
  /// is down while the client path stays alive. probe_round() counts the
  /// node as failed (and stops heartbeating it) even though exchange()
  /// still delivers requests.
  void set_probe_reachable(std::size_t i, bool reachable);

  /// Crash node i: destroy the server, keep its directory. Its partitions
  /// keep routing to it (requests go unanswered) until probe_round()
  /// notices and promotes.
  void fail_node(std::size_t i);
  /// Recover node i from its surviving directory (WAL replay). The node
  /// rejoins as a follower of the current table — no automatic failback.
  void rejoin_node(std::size_t i);

  /// One probe sweep: a node found down accumulates a failed probe; at
  /// probe_fail_threshold consecutive failures its partitions are
  /// retargeted to the next live node in ring order (journal: one
  /// primary_demoted per node, one follower_promoted per partition).
  void probe_round();

  /// One replication sweep around the ring: every live node syncs its WAL,
  /// ships up to `max_records` past the follower's acked cursor through
  /// the (possibly faulty) replication link, applies, and folds the ack
  /// back. Returns records applied across the cluster this round.
  std::size_t replicate_round(std::size_t max_records = 256);

  /// Drive replicate_round until a full round applies nothing and every
  /// live pair is caught up (or `max_rounds`). Returns records applied.
  std::size_t replicate_until_quiescent(std::size_t max_rounds = 256);

  /// Follower lag of node i's stream: primary WAL tip − follower acked.
  [[nodiscard]] std::uint64_t replication_lag(std::size_t i) const;

  /// One anti-entropy sweep: for every caught-up primary→follower stream,
  /// exchange fingerprint-book summaries per owned partition; on
  /// divergence, rewind the stream's cursors to just before the earliest
  /// record feeding a divergent bucket and re-ship through the ordinary
  /// replication path (follower dedup absorbs the overlap — no full
  /// resync). Journals kRepairStarted/kRepairCompleted, bumps
  /// svg_cluster_repair_*. Returns records re-shipped.
  std::size_t repair_round();

  /// One scrub pass over node i's durability directory (store/scrub.hpp).
  /// Syncs the node's WAL first when it is up so the on-disk chain is
  /// current. Corrupt cold artifacts are quarantined.
  [[nodiscard]] store::ScrubReport scrub_node(std::size_t i,
                                              bool quarantine = true);

  /// Rebuild node i from its ring follower's replicated copy: wipe the
  /// node's directory, re-ingest every record of the partitions it serves
  /// out of the follower's WAL (original upload_ids, so dedup semantics
  /// survive), restart its replication stream from zero (the follower
  /// skips everything it already holds). The repair-from-replica step
  /// after a scrub quarantines part of a node's chain. Journals
  /// kPeerRestore. False if the follower is down or unreadable.
  bool restore_node_from_peer(std::size_t i);

  /// Test hook: force node i's stream cursors (acked + applied) to `seq`,
  /// seeding exactly the silent divergence repair_round() must detect —
  /// records at or below `seq` the follower never applied are skipped.
  void force_ship_cursor(std::size_t i, std::uint64_t seq);

  /// The cluster's canonical content fingerprint: every serving node's
  /// snapshot filtered to the partitions it serves (replication copies on
  /// followers drop out), unioned and encoded with canonical_fingerprint.
  /// Byte-equal to a fault-free single-node run over the same uploads —
  /// the chaos oracle. Uses scratch files under `scratch_dir`; nullopt if
  /// any serving node is down or a snapshot fails.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> canonical_bytes(
      const std::string& scratch_dir);

 private:
  struct NodeState {
    std::unique_ptr<net::CloudServer> server;
    bool up = true;
    bool probe_ok = true;  ///< probe/heartbeat path reachable (see above)
    std::uint32_t failed_probes = 0;
    net::Link link;            ///< router ↔ node
    net::Link repl_link;       ///< node ↔ its ring follower
    std::unique_ptr<net::FaultyLink> faulty_link;
    std::unique_ptr<net::FaultyLink> faulty_repl_link;
    std::unique_ptr<NodeFence> fence;  ///< non-null iff cfg.fencing
    FingerprintBook book;  ///< per-partition fingerprints of held records
  };

  [[nodiscard]] std::unique_ptr<net::CloudServer> make_server(std::size_t i);
  /// Router-side transport: push the request (and any response) through
  /// node i's faulty link; dispatch by tag byte on the node side.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> exchange(
      std::size_t i, std::span<const std::uint8_t> request);
  [[nodiscard]] std::vector<std::uint8_t> dispatch(
      std::size_t i, std::span<const std::uint8_t> request);
  void set_nodes_up_gauge();
  void set_nodes_fenced_gauge();
  [[nodiscard]] std::unique_ptr<NodeFence> make_fence(std::size_t i) const;
  /// Rebuild node i's book from its on-disk WAL (rejoin/restore).
  void rebuild_book(std::size_t i);

  ClusterConfig cfg_;
  GeoPartitioner partitioner_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::unique_ptr<Router> router_;
  /// Primary-side shipping cursor per node stream (what node (i+1)%N has
  /// acked of node i's WAL). Survives node i's crash — harness state, the
  /// way a real follower would remember its own cursor.
  std::vector<std::uint64_t> acked_;
  /// Follower-side applied cursor for node i's stream (the follower's
  /// source of truth the acks are computed from).
  std::vector<std::uint64_t> applied_;
  std::vector<bool> lag_alerted_;
};

/// Canonical content fingerprint: sort by (video_id, segment_id, t_start)
/// and encode with the snapshot codec (last_seq 0, no dedup ids). Two
/// corpora fingerprint byte-identically iff they hold the same segments.
[[nodiscard]] std::vector<std::uint8_t> canonical_fingerprint(
    std::vector<core::RepresentativeFov> reps);

}  // namespace svg::cluster
