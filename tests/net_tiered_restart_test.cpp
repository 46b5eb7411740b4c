// Restart test for the tiered index: replaying a server's WAL must rebuild
// not just the same indexed set but the SAME runs. Sealing is purely
// size-triggered (no wall clock), so replaying the upload stream in order
// reproduces every run boundary — rows, ts_min, ts_max — exactly, even
// though replay hands the index one batch per WAL record rather than the
// original upload batches. Compaction timing is the one nondeterministic
// input, so the tiered indexes here run with compaction off
// (compact_interval_ms = 0).
//
// The server serves from the R-tree; the tiered index is fed the server's
// upload stream live and rebuilt from its log through the same
// store::recover_and_open path the server restarts through.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index/tiered_fov_index.hpp"
#include "net/server.hpp"
#include "sim/crowd.hpp"
#include "store/recovery.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg::net;
using svg::core::RepresentativeFov;
using svg::index::TieredFovIndex;
using svg::index::TieredStats;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_tiered_restart_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<RepresentativeFov> sample_reps(std::size_t n, std::uint64_t seed) {
  svg::sim::CityModel city;
  // Dense enough that some cameras stand within radius-of-view of the
  // centre — the orientation filter rejects everything farther out, and a
  // restart test whose queries all return empty proves nothing.
  city.extent_m = 600.0;
  svg::util::Xoshiro256 rng(seed);
  return svg::sim::random_representative_fovs(n, city, 1'400'000'000'000,
                                              86'400'000, rng);
}

// Uploads `reps` to the server in `batch`-row messages and feeds the same
// batches to `live`, as a tiered-backed server would index them.
void ingest_in_batches(CloudServer& server, TieredFovIndex& live,
                       const std::vector<RepresentativeFov>& reps,
                       std::size_t batch) {
  for (std::size_t i = 0; i < reps.size(); i += batch) {
    UploadMessage msg;
    msg.video_id = i;
    const auto end = std::min(i + batch, reps.size());
    msg.segments.assign(reps.begin() + static_cast<std::ptrdiff_t>(i),
                        reps.begin() + static_cast<std::ptrdiff_t>(end));
    ASSERT_EQ(server.ingest_status(msg), IngestStatus::kAccepted);
    live.insert_batch(std::span<const RepresentativeFov>(msg.segments));
  }
}

svg::retrieval::Query wide_query() {
  svg::retrieval::Query q;
  q.center = svg::sim::CityModel{}.center;
  q.radius_m = 800.0;
  q.t_start = 1'400'000'000'000;
  q.t_end = q.t_start + 86'400'000;
  return q;
}

// Canonical view of a result set: sorted (video_id, segment_id) pairs, so
// equality is insensitive to index-internal visit order.
std::vector<std::pair<std::uint64_t, std::uint32_t>> canonical_hits(
    const CloudServer& server, const svg::retrieval::Query& q) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& r : server.search(q)) {
    out.emplace_back(r.rep.video_id, r.rep.segment_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TieredRestartTest, WalReplayRebuildsIdenticalRuns) {
  ScopedDir dir("wal");
  const auto reps = sample_reps(500, 21);
  const auto q = wide_query();
  // Small memtable → many sealed runs from 500 rows.
  const svg::index::TieredFovIndexOptions tiered_opts{.memtable_capacity =
                                                          64};

  TieredStats before{};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits_before;
  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    TieredFovIndex live(tiered_opts);
    // batch != memtable: uploads straddle seals.
    ASSERT_NO_FATAL_FAILURE(ingest_in_batches(server, live, reps, 23));
    before = live.run_stats();
    ASSERT_GT(before.runs.size(), 2u);  // the test is vacuous otherwise
    ASSERT_GT(before.memtable_rows, 0u);
    hits_before = canonical_hits(server, q);
    ASSERT_FALSE(hits_before.empty());
    server.sync_wal();
  }  // no checkpoint: every restart below replays the WAL from scratch

  {
    TieredFovIndex replayed(tiered_opts);
    svg::store::WalOptions wopts;
    wopts.dir = dir.path;
    auto opened = svg::store::recover_and_open(
        wopts, [&](std::span<const RepresentativeFov> batch) {
          replayed.insert_batch(batch);
        });
    ASSERT_TRUE(opened.result.ok) << opened.result.error;
    EXPECT_EQ(opened.result.snapshot_seq, 0u);
    EXPECT_GT(opened.result.wal_records_replayed, 0u);
    EXPECT_EQ(replayed.size(), reps.size());

    // Size-triggered sealing is deterministic: replay reproduces every run
    // boundary and its time tags, not merely the same row multiset.
    const auto stats = replayed.run_stats();
    ASSERT_EQ(stats.runs.size(), before.runs.size());
    for (std::size_t i = 0; i < before.runs.size(); ++i) {
      EXPECT_EQ(stats.runs[i].rows, before.runs[i].rows) << "run " << i;
      EXPECT_EQ(stats.runs[i].ts_min, before.runs[i].ts_min) << "run " << i;
      EXPECT_EQ(stats.runs[i].ts_max, before.runs[i].ts_max) << "run " << i;
    }
    EXPECT_EQ(stats.memtable_rows, before.memtable_rows);
    EXPECT_EQ(stats.seals, before.seals);
    replayed.check_invariants();
  }  // closes the reopened WAL before the server takes the directory

  {
    ServerDurabilityConfig dcfg;
    dcfg.data_dir = dir.path;
    CloudServer server({}, {}, dcfg);
    EXPECT_TRUE(server.recovery().ok);
    EXPECT_GT(server.recovery().wal_records_replayed, 0u);
    EXPECT_EQ(server.indexed_segments(), reps.size());
    EXPECT_EQ(canonical_hits(server, q), hits_before);
  }
}

}  // namespace
