// Scatter-gather correctness: the cluster's merged top-N must be
// byte-identical (through the client results codec) to a single-node
// server holding the same corpus, a query missing the deployment fans out
// to zero nodes, the shared k-way merge helper behaves exactly as the
// single-list ranking, and the fan-out leg codec (with its partition
// list) round-trips and refuses every malformed leg.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/router.hpp"
#include "cluster/wire.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "obs/families.hpp"
#include "retrieval/top_n.hpp"
#include "sim/crowd.hpp"
#include "store/crc32c.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

std::vector<net::UploadMessage> make_uploads(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  const std::size_t n_uploads = 4 + rng.bounded(4);
  std::vector<net::UploadMessage> uploads;
  for (std::size_t u = 0; u < n_uploads; ++u) {
    net::UploadMessage msg;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        8 + rng.bounded(8), city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    uploads.push_back(std::move(msg));
  }
  return uploads;
}

/// The upload wire codec stores positions as 1e-7 degree fixed point, so
/// cluster nodes index quantized FoVs. The single-node oracle must see
/// the same quantization or its ranking doubles differ in the last few
/// millimetres — roundtrip its uploads through the codec.
net::UploadMessage wire_roundtrip(const net::UploadMessage& m) {
  const auto back = net::decode_upload(net::encode_upload(m));
  EXPECT_TRUE(back.has_value());
  return *back;
}

/// The exact conversion handle_query applies before encoding, so two
/// RankedResult lists compare through the client codec's bytes.
std::vector<std::uint8_t> results_bytes(
    const std::vector<retrieval::RankedResult>& hits) {
  net::ResultsMessage out;
  for (const auto& h : hits) {
    net::ResultEntry e;
    e.video_id = h.rep.video_id;
    e.segment_id = h.rep.segment_id;
    e.t_start = h.rep.t_start;
    e.t_end = h.rep.t_end;
    e.distance_m = static_cast<float>(h.distance_m);
    out.entries.push_back(e);
  }
  return net::encode_results(out);
}

retrieval::Query random_query(util::Xoshiro256& rng) {
  const geo::Box2 b = sim::CityModel{}.bounds_deg();
  retrieval::Query q;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 3'600'000;
  q.center = {b.min[1] + rng.uniform() * (b.max[1] - b.min[1]),
              b.min[0] + rng.uniform() * (b.max[0] - b.min[0])};
  q.radius_m = 30.0 + rng.uniform() * 90.0;
  return q;
}

TEST(ClusterQueryTest, ClusterMatchesSingleNodeByteIdenticalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto uploads = make_uploads(seed);

    net::CloudServer single;
    for (const auto& m : uploads) ASSERT_TRUE(single.ingest(wire_roundtrip(m)));

    ClusterConfig cfg;  // in-memory: query path only
    cfg.nodes = 4;
    cfg.partition.bounds = sim::CityModel{}.bounds_deg();
    Cluster cluster(cfg);
    net::UploadQueue queue({}, seed * 13 + 1);
    for (const auto& m : uploads) queue.enqueue(m);
    ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

    util::Xoshiro256 rng(seed ^ 0xABCDEF);
    for (int i = 0; i < 25; ++i) {
      const retrieval::Query q = random_query(rng);
      bool complete = false;
      const auto got = cluster.router().search(q, 10, &complete);
      ASSERT_TRUE(complete);
      const auto want = single.search_n(q, 10);
      ASSERT_EQ(results_bytes(got), results_bytes(want))
          << "seed " << seed << " query " << i;
      // Beyond the quantizing codec: ranking doubles must be bit-equal,
      // or cross-node ties would break differently than single-node ones.
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].distance_m, want[r].distance_m);
        ASSERT_EQ(got[r].relevance, want[r].relevance);
      }
    }
  }
}

TEST(ClusterQueryTest, QueryOutsideDeploymentContactsNoNode) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  Cluster cluster(cfg);
  const auto uploads = make_uploads(3);
  net::UploadQueue queue({}, 9);
  for (const auto& m : uploads) queue.enqueue(m);
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));

  auto& m = obs::cluster_metrics();
  const std::uint64_t fanned_before = m.fanout_nodes.value();
  const std::uint64_t queries_before = m.queries.value();

  retrieval::Query q;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 3'600'000;
  q.center = {0.0, 0.0};  // Gulf of Guinea, far from the deployment
  q.radius_m = 100.0;
  bool complete = false;
  EXPECT_TRUE(cluster.router().search(q, 10, &complete).empty());
  EXPECT_TRUE(complete);  // vacuously: no node needed answering
  EXPECT_EQ(m.queries.value(), queries_before + 1);
  EXPECT_EQ(m.fanout_nodes.value(), fanned_before);  // zero fan-out
}

TEST(ClusterQueryTest, MergeKeepsGlobalOrderAcrossLists) {
  auto mk = [](double d, std::uint64_t vid, std::uint32_t sid) {
    retrieval::RankedResult r;
    r.distance_m = d;
    r.rep.video_id = vid;
    r.rep.segment_id = sid;
    return r;
  };
  std::vector<std::vector<retrieval::RankedResult>> lists = {
      {mk(1.0, 1, 0), mk(4.0, 1, 1), mk(9.0, 1, 2)},
      {mk(2.0, 2, 0), mk(3.0, 2, 1)},
      {},
      {mk(0.5, 3, 0)},
  };
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 4,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].rep.video_id, 3u);
  EXPECT_EQ(merged[1].rep.video_id, 1u);
  EXPECT_EQ(merged[2].rep.video_id, 2u);
  EXPECT_DOUBLE_EQ(merged[3].distance_m, 3.0);
}

TEST(ClusterQueryTest, MergeTiesResolveToLowerListIndex) {
  auto mk = [](double d, std::uint64_t vid) {
    retrieval::RankedResult r;
    r.distance_m = d;
    r.rep.video_id = vid;
    return r;
  };
  // Exact tie under RankedBefore (same distance, video, segment) but
  // different relevance payloads: the lower list must win, always.
  auto a = mk(5.0, 7);
  a.relevance = 0.25;
  auto b = mk(5.0, 7);
  b.relevance = 0.75;
  std::vector<std::vector<retrieval::RankedResult>> lists = {{a}, {b}};
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 2,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].relevance, 0.25);
  EXPECT_DOUBLE_EQ(merged[1].relevance, 0.75);
}

TEST(ClusterQueryTest, MergeRespectsTheKCut) {
  auto mk = [](double d) {
    retrieval::RankedResult r;
    r.distance_m = d;
    return r;
  };
  std::vector<std::vector<retrieval::RankedResult>> lists = {
      {mk(1), mk(3), mk(5)}, {mk(2), mk(4), mk(6)}};
  const auto merged = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 3,
      retrieval::RankedBefore{});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[2].distance_m, 3.0);
  const auto all = retrieval::merge_ranked_lists(
      std::span<const std::vector<retrieval::RankedResult>>(lists), 100,
      retrieval::RankedBefore{});
  EXPECT_EQ(all.size(), 6u);
}

TEST(ClusterQueryTest, FanoutDecoderRejectsTimeWindowOverflow) {
  // The window travels as (t_start, t_end - t_start) svarints; a crafted
  // leg whose sum leaves int64 must be refused, not decoded through
  // signed overflow. Hand-built because no valid query encodes to it.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const auto fanout = [](std::int64_t t0, std::int64_t dt) {
    util::ByteWriter w;
    w.put_u8(kMsgQueryFanout);
    w.put_varint(1);  // epoch
    w.put_svarint(t0);
    w.put_svarint(dt);
    for (int i = 0; i < 3; ++i) w.put_u64(0);  // lat, lng, radius doubles
    w.put_varint(10);                         // top_n
    w.put_varint(1);                          // partition count
    w.put_varint(0);                          // partition 0
    w.put_u32(store::crc32c(w.bytes()));
    return w.take();
  };
  QueryFanoutMessage m;
  EXPECT_FALSE(decode_query_fanout(fanout(kMax, 1), m));
  EXPECT_FALSE(decode_query_fanout(fanout(kMin, -1), m));
  ASSERT_TRUE(decode_query_fanout(fanout(kMax - 1, 1), m));
  EXPECT_EQ(m.t_end, kMax);
}

QueryFanoutMessage sample_fanout() {
  QueryFanoutMessage m;
  m.epoch = 7;
  m.t_start = 1'400'000'000'000;
  m.t_end = m.t_start + 3'600'000;
  m.center = {39.91, 116.40};
  m.radius_m = 75.5;
  m.top_n = 12;
  m.partitions = {0, 2, 300};  // 300: a two-byte varint
  return m;
}

/// A fan-out body (everything before the crc) with a hand-written
/// partition list, sealed with a valid crc — the malformed lists no
/// encoder produces.
std::vector<std::uint8_t> fanout_with_list(
    const std::vector<std::uint64_t>& list, std::uint64_t count,
    bool trailing_byte) {
  util::ByteWriter w;
  w.put_u8(kMsgQueryFanout);
  w.put_varint(1);                       // epoch
  w.put_svarint(1'400'000'000'000);      // t_start
  w.put_svarint(3'600'000);              // t_end - t_start
  w.put_u64(std::bit_cast<std::uint64_t>(39.91));
  w.put_u64(std::bit_cast<std::uint64_t>(116.40));
  w.put_u64(std::bit_cast<std::uint64_t>(50.0));
  w.put_varint(10);                      // top_n
  w.put_varint(count);
  for (const std::uint64_t p : list) w.put_varint(p);
  if (trailing_byte) w.put_u8(0);
  w.put_u32(store::crc32c(w.bytes()));
  return w.take();
}

TEST(ClusterQueryTest, FanoutRoundTripsWithItsPartitionList) {
  const QueryFanoutMessage want = sample_fanout();
  std::vector<std::uint8_t> bytes;
  encode_query_fanout(want, bytes);
  ASSERT_EQ(bytes.front(), kMsgQueryFanout);  // tag 8 leads every leg
  QueryFanoutMessage got;
  got.partitions = {9, 9, 9, 9};  // stale contents must be replaced
  ASSERT_TRUE(decode_query_fanout(bytes, got));
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.t_start, want.t_start);
  EXPECT_EQ(got.t_end, want.t_end);
  EXPECT_EQ(got.center.lat, want.center.lat);
  EXPECT_EQ(got.center.lng, want.center.lng);
  EXPECT_EQ(got.radius_m, want.radius_m);
  EXPECT_EQ(got.top_n, want.top_n);
  EXPECT_EQ(got.partitions, want.partitions);

  // Re-encoding into the same (now non-empty) buffer yields the same bytes.
  std::vector<std::uint8_t> again = bytes;
  encode_query_fanout(want, again);
  EXPECT_EQ(again, bytes);
  // The hand-written layout agrees with the encoder.
  QueryFanoutMessage hand;
  ASSERT_TRUE(decode_query_fanout(fanout_with_list({1, 3}, 2, false), hand));
  EXPECT_EQ(hand.partitions, (std::vector<std::uint32_t>{1, 3}));
}

TEST(ClusterQueryTest, FanoutRejectsByteFlipsAndTruncation) {
  std::vector<std::uint8_t> bytes;
  encode_query_fanout(sample_fanout(), bytes);
  QueryFanoutMessage m;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_FALSE(decode_query_fanout(bad, m)) << "flip at byte " << i;
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_query_fanout(std::span(bytes.data(), len), m))
        << "truncated to " << len << " bytes";
  }
}

TEST(ClusterQueryTest, FanoutDecoderRejectsMalformedPartitionLists) {
  QueryFanoutMessage m;
  EXPECT_FALSE(decode_query_fanout(fanout_with_list({}, 0, false), m))
      << "empty list";
  EXPECT_FALSE(decode_query_fanout(fanout_with_list({2, 1}, 2, false), m))
      << "unsorted list";
  EXPECT_FALSE(decode_query_fanout(fanout_with_list({1, 1}, 2, false), m))
      << "duplicate id";
  EXPECT_FALSE(decode_query_fanout(fanout_with_list({0, 1}, 3, false), m))
      << "list shorter than its count";
  EXPECT_FALSE(decode_query_fanout(fanout_with_list({0, 1}, 2, true), m))
      << "trailing byte";
  EXPECT_FALSE(
      decode_query_fanout(fanout_with_list({1ull << 32}, 1, false), m))
      << "id beyond 32 bits";
}

TEST(ClusterQueryTest, NodeRefusesMalformedLegsByNotReplying) {
  PartitionConfig pc;
  pc.bounds = sim::CityModel{}.bounds_deg();
  pc.partitions = 3;
  const GeoPartitioner part(pc);
  net::CloudServer server;
  for (const auto& m : make_uploads(5)) {
    ASSERT_TRUE(server.ingest(wire_roundtrip(m)));
  }
  // The well-formed leg is answered, so the refusals below are the list's.
  ASSERT_FALSE(
      handle_fanout_query(server, part, 0, fanout_with_list({0, 2}, 2, false))
          .empty());
  const std::vector<std::vector<std::uint8_t>> refused = {
      fanout_with_list({}, 0, false),      // empty list
      fanout_with_list({3}, 1, false),     // id == partition count
      fanout_with_list({0, 7}, 2, false),  // id beyond the count
      fanout_with_list({2, 0}, 2, false),  // unsorted
      fanout_with_list({1, 1}, 2, false),  // duplicate
      fanout_with_list({0, 1}, 3, false),  // truncated list
      fanout_with_list({0, 1}, 2, true),   // trailing byte
  };
  for (std::size_t i = 0; i < refused.size(); ++i) {
    EXPECT_TRUE(handle_fanout_query(server, part, 0, refused[i]).empty())
        << "malformed leg " << i << " was answered";
  }
}

}  // namespace
