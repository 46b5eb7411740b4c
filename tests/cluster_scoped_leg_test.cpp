// Scoped fan-out legs: in a replicated cluster every node holds every
// row, yet each leg may answer only for the partitions the router listed
// for it. Checked through a Router built with the public constructor over
// Cluster::exchange_fn(), the way an external harness builds one:
//   * every row a leg returns lies in a partition of that leg's list;
//   * no (video, segment) comes back from two legs of one query;
//   * the merged answer equals a single-node oracle's, bit for bit;
//   * rows exactly on a cell edge and rows outside the deployment bounds
//     (clamped into the border cells) are each found exactly once.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/router.hpp"
#include "cluster/wire.hpp"
#include "net/server.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

constexpr core::TimestampMs kT0 = 1'400'000'000'000;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_cluster_scoped_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

/// A deployment whose cell edges are exact doubles on the wire's 1e-7
/// degree grid: bounds on multiples of 1/128 degree, 16 cells of 1/128
/// degree per side. A row placed on an edge is then stored exactly on it.
PartitionConfig edge_exact_partition() {
  PartitionConfig p;
  p.bounds.min = {116.0, 39.875};
  p.bounds.max = {116.125, 40.0};
  p.cells_per_side = 16;
  p.partitions = 3;
  return p;
}
constexpr double kCell = 1.0 / 128.0;

/// The double the wire codec decodes for `deg` (1e-7 degree fixed point),
/// so a row built with it survives the upload round trip unchanged.
double on_grid(double deg) { return std::round(deg * 1e7) / 1e7; }

core::RepresentativeFov row_at(double lng, double lat, util::Xoshiro256& rng) {
  core::RepresentativeFov r;
  r.fov.p = {on_grid(lat), on_grid(lng)};
  r.fov.theta_deg = std::round(rng.uniform() * 3600.0) / 10.0;
  r.t_start = kT0 + static_cast<core::TimestampMs>(rng.bounded(3'000'000));
  r.t_end = r.t_start + 5'000;
  return r;
}

struct Corpus {
  std::vector<net::UploadMessage> uploads;
  std::vector<core::RepresentativeFov> special;  ///< edge + out-of-bounds
};

Corpus make_corpus(std::uint64_t seed) {
  const PartitionConfig p = edge_exact_partition();
  util::Xoshiro256 rng(seed);
  const auto lng_at = [&](double u) {
    return p.bounds.min[0] + u * (p.bounds.max[0] - p.bounds.min[0]);
  };
  const auto lat_at = [&](double u) {
    return p.bounds.min[1] + u * (p.bounds.max[1] - p.bounds.min[1]);
  };
  Corpus c;
  // Rows exactly on interior cell edges (vertical, horizontal, corners).
  for (int k = 1; k < 16; ++k) {
    c.special.push_back(row_at(p.bounds.min[0] + k * kCell,
                               lat_at(rng.uniform()), rng));
    c.special.push_back(row_at(lng_at(rng.uniform()),
                               p.bounds.min[1] + k * kCell, rng));
    c.special.push_back(row_at(p.bounds.min[0] + k * kCell,
                               p.bounds.min[1] + (16 - k) * kCell, rng));
  }
  // Rows just outside each side of the deployment, and past two corners:
  // cell_of clamps them into the border cells.
  const double out = 1e-4;  // about 9 m
  for (int i = 0; i < 4; ++i) {
    c.special.push_back(row_at(p.bounds.min[0] - out, lat_at(rng.uniform()), rng));
    c.special.push_back(row_at(p.bounds.max[0] + out, lat_at(rng.uniform()), rng));
    c.special.push_back(row_at(lng_at(rng.uniform()), p.bounds.min[1] - out, rng));
    c.special.push_back(row_at(lng_at(rng.uniform()), p.bounds.max[1] + out, rng));
  }
  c.special.push_back(row_at(p.bounds.min[0] - out, p.bounds.min[1] - out, rng));
  c.special.push_back(row_at(p.bounds.max[0] + out, p.bounds.max[1] + out, rng));

  std::vector<core::RepresentativeFov> rows = c.special;
  for (int i = 0; i < 600; ++i) {
    rows.push_back(row_at(lng_at(rng.uniform()), lat_at(rng.uniform()), rng));
  }
  // Ten rows per upload, ids assigned in upload order.
  for (std::size_t at = 0; at < rows.size(); at += 10) {
    net::UploadMessage msg;
    msg.upload_id = 5000 + at;
    msg.video_id = 1 + at / 10;
    for (std::size_t i = at; i < std::min(rows.size(), at + 10); ++i) {
      core::RepresentativeFov r = rows[i];
      r.video_id = msg.video_id;
      r.segment_id = static_cast<std::uint32_t>(i - at);
      if (i < c.special.size()) c.special[i] = r;
      msg.segments.push_back(r);
    }
    c.uploads.push_back(std::move(msg));
  }
  return c;
}

/// One leg as the probe saw it: the partitions asked for and the rows
/// the node answered with.
struct Leg {
  std::size_t node = 0;
  std::vector<std::uint32_t> partitions;
  std::vector<retrieval::RankedResult> rows;
};

TEST(ClusterScopedLegTest, ReplicatedClusterAnswersEachRowFromOneLeg) {
  ScopedDir dir("replicated");
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.partition = edge_exact_partition();
  cfg.data_dir = dir.path;
  Cluster cluster(cfg);

  const Corpus corpus = make_corpus(17);
  net::CloudServer oracle;
  std::size_t rows = 0;
  for (const auto& m : corpus.uploads) {
    // Through the upload codec, so the oracle indexes exactly what the
    // nodes index (positions are already on its grid).
    const auto decoded = net::decode_upload(net::encode_upload(m));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->segments.front().fov.p.lng, m.segments.front().fov.p.lng);
    ASSERT_TRUE(oracle.ingest(*decoded));
    rows += m.segments.size();
  }
  net::UploadQueue queue({}, 23);
  for (const auto& m : corpus.uploads) queue.enqueue(m);
  ASSERT_TRUE(queue.drain(cluster.router().upload_channel()));
  cluster.replicate_until_quiescent();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(cluster.node(i)->indexed_segments(), rows)
        << "node " << i << " does not hold every row";
  }

  std::vector<Leg> legs;
  const NodeExchange exchange = cluster.exchange_fn();
  const GeoPartitioner& part = cluster.router().partitioner();
  Router probe(part, retrieval::RetrievalConfig{},
               RoutingTable::identity(part.config().partitions),
               [&](std::size_t node, std::span<const std::uint8_t> request) {
                 auto replies = exchange(node, request);
                 Leg leg;
                 leg.node = node;
                 QueryFanoutMessage msg;
                 EXPECT_TRUE(decode_query_fanout(request, msg));
                 leg.partitions = msg.partitions;
                 EXPECT_EQ(replies.size(), 1u);
                 if (!replies.empty()) {
                   const auto res = decode_fanout_results(replies.front());
                   EXPECT_TRUE(res.has_value());
                   if (res) leg.rows = res->results;
                 }
                 legs.push_back(std::move(leg));
                 return replies;
               });

  const auto check = [&](const retrieval::Query& q, std::uint32_t top_n,
                         const std::string& what) {
    legs.clear();
    bool complete = false;
    const auto got = probe.search(q, top_n, &complete);
    EXPECT_TRUE(complete) << what;
    std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
    std::set<std::size_t> nodes;
    for (const Leg& leg : legs) {
      EXPECT_TRUE(nodes.insert(leg.node).second) << what << ": node asked twice";
      for (const auto& hit : leg.rows) {
        const std::uint32_t p = static_cast<std::uint32_t>(
            part.partition_of(hit.rep.fov.p.lng, hit.rep.fov.p.lat));
        EXPECT_TRUE(std::binary_search(leg.partitions.begin(),
                                       leg.partitions.end(), p))
            << what << ": node " << leg.node << " answered a row of partition "
            << p;
        EXPECT_TRUE(
            seen.emplace(hit.rep.video_id, hit.rep.segment_id).second)
            << what << ": video " << hit.rep.video_id << " segment "
            << hit.rep.segment_id << " came back from two legs";
      }
    }
    const auto want = oracle.search_n(q, top_n);
    EXPECT_EQ(got.size(), want.size()) << what;
    for (std::size_t r = 0; r < std::min(got.size(), want.size()); ++r) {
      EXPECT_EQ(got[r].rep.video_id, want[r].rep.video_id) << what;
      EXPECT_EQ(got[r].rep.segment_id, want[r].rep.segment_id) << what;
      EXPECT_EQ(got[r].distance_m, want[r].distance_m) << what;
      EXPECT_EQ(got[r].relevance, want[r].relevance) << what;
    }
    return got;
  };

  // Seeded queries over the whole deployment and a margin around it.
  const PartitionConfig& p = part.config();
  util::Xoshiro256 rng(29);
  std::size_t multi_leg = 0, hits = 0;
  for (int i = 0; i < 200; ++i) {
    retrieval::Query q;
    q.t_start = kT0 + static_cast<core::TimestampMs>(rng.bounded(2'000'000));
    q.t_end = q.t_start + 1'800'000;
    q.center = {p.bounds.min[1] - 0.005 + rng.uniform() * (kCell * 16 + 0.01),
                p.bounds.min[0] - 0.005 + rng.uniform() * (kCell * 16 + 0.01)};
    q.radius_m = 30.0 + rng.uniform() * 400.0;
    hits += check(q, 10, "random query " + std::to_string(i)).size();
    multi_leg += legs.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(multi_leg, 20u) << "too few queries spanned two nodes to test";

  // Every edge and out-of-bounds row, queried where it stands: it ranks
  // first (distance 0) and must come from exactly one leg.
  for (const core::RepresentativeFov& row : corpus.special) {
    retrieval::Query q;
    q.t_start = row.t_start;
    q.t_end = row.t_end;
    q.center = row.fov.p;
    q.radius_m = 40.0;
    const std::string what = "row at (" + std::to_string(row.fov.p.lng) +
                             ", " + std::to_string(row.fov.p.lat) + ")";
    const auto got = check(q, 10, what);
    std::size_t from_legs = 0;
    for (const Leg& leg : legs) {
      for (const auto& hit : leg.rows) {
        from_legs += hit.rep.video_id == row.video_id &&
                     hit.rep.segment_id == row.segment_id;
      }
    }
    EXPECT_EQ(from_legs, 1u) << what;
    ASSERT_FALSE(got.empty()) << what;
    EXPECT_EQ(got.front().rep.video_id, row.video_id) << what;
    EXPECT_EQ(got.front().rep.segment_id, row.segment_id) << what;
  }
}

}  // namespace
