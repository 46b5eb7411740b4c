// WAL-shipping replication unit coverage: a follower fed batches from the
// primary's log converges to the primary's exact content, re-applied
// batches are no-ops (upload_id dedup + cursor skip), gap batches are
// refused whole, and the cursor never moves backwards.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/replication.hpp"
#include "cluster/wire.hpp"
#include "net/server.hpp"
#include "obs/families.hpp"
#include "sim/crowd.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("svg_cluster_repl_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::vector<net::UploadMessage> make_uploads(std::uint64_t seed,
                                             std::size_t count) {
  util::Xoshiro256 rng(seed);
  sim::CityModel city;
  std::vector<net::UploadMessage> uploads;
  for (std::size_t u = 0; u < count; ++u) {
    net::UploadMessage msg;
    msg.upload_id = 1000 + u;
    msg.video_id = u + 1;
    msg.segments = sim::random_representative_fovs(
        4 + rng.bounded(5), city, 1'400'000'000'000, 3'600'000, rng);
    for (std::size_t i = 0; i < msg.segments.size(); ++i) {
      msg.segments[i].video_id = msg.video_id;
      msg.segments[i].segment_id = static_cast<std::uint32_t>(i);
    }
    uploads.push_back(std::move(msg));
  }
  return uploads;
}

std::vector<std::uint8_t> fingerprint(const net::CloudServer& server,
                                      const std::string& scratch) {
  EXPECT_TRUE(server.save_snapshot(scratch));
  const auto snap = store::load_snapshot_file_full(scratch);
  EXPECT_TRUE(snap.has_value());
  return canonical_fingerprint(snap->reps);
}

std::unique_ptr<net::CloudServer> make_durable(const std::string& dir) {
  net::ServerDurabilityConfig d;
  d.data_dir = dir;
  d.fsync = store::FsyncPolicy::kNone;
  return std::make_unique<net::CloudServer>(index::FovIndexOptions{},
                                            retrieval::RetrievalConfig{}, d);
}

TEST(ClusterReplicationTest, FollowerShipsUntilCaughtUpAndMatchesPrimary) {
  ScopedDir dir("catchup");
  const auto primary_ptr = make_durable(dir.path + "/p");
  net::CloudServer& primary = *primary_ptr;
  net::CloudServer follower;  // content equality is index-level
  const auto uploads = make_uploads(1, 8);
  for (const auto& m : uploads) ASSERT_TRUE(primary.ingest(m));
  primary.sync_wal();

  std::uint64_t cursor = 0;
  std::size_t batches = 0;
  for (;;) {
    const auto batch =
        next_replicate_batch(dir.path + "/p", 0, cursor, /*max_records=*/3);
    ASSERT_TRUE(batch.has_value());
    if (batch->payloads.empty()) break;  // caught up
    cursor = apply_replicate_batch(follower, *batch, cursor);
    ++batches;
    ASSERT_LT(batches, 100u);
  }
  EXPECT_EQ(cursor, primary.last_wal_seq());
  EXPECT_EQ(follower.indexed_segments(), primary.indexed_segments());
  EXPECT_EQ(fingerprint(follower, dir.path + "/f.snap"),
            fingerprint(primary, dir.path + "/p.snap"));
  // max_records=3 over 8 records means at least 3 non-empty batches.
  EXPECT_GE(batches, 3u);
}

TEST(ClusterReplicationTest, ReapplyingABatchIsIdempotent) {
  ScopedDir dir("idem");
  const auto primary_ptr = make_durable(dir.path + "/p");
  net::CloudServer& primary = *primary_ptr;
  net::CloudServer follower;
  const auto uploads = make_uploads(2, 4);
  for (const auto& m : uploads) ASSERT_TRUE(primary.ingest(m));
  primary.sync_wal();

  const auto batch = next_replicate_batch(dir.path + "/p", 0, 0, 0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->payloads.size(), uploads.size());
  std::size_t applied = 0;
  std::uint64_t cursor = apply_replicate_batch(follower, *batch, 0, &applied);
  EXPECT_EQ(applied, uploads.size());
  EXPECT_EQ(cursor, primary.last_wal_seq());

  // Duplicate delivery of the same batch: cursor skips everything.
  applied = 99;
  const std::uint64_t cursor2 =
      apply_replicate_batch(follower, *batch, cursor, &applied);
  EXPECT_EQ(cursor2, cursor);
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(follower.indexed_segments(), primary.indexed_segments());

  // Even with a rewound cursor (say the ack was lost and the shipper
  // resent from 0), upload_id dedup keeps the content single-copy.
  const std::uint64_t cursor3 =
      apply_replicate_batch(follower, *batch, 0, &applied);
  EXPECT_EQ(cursor3, cursor);
  EXPECT_EQ(follower.indexed_segments(), primary.indexed_segments());
  EXPECT_EQ(fingerprint(follower, dir.path + "/f.snap"),
            fingerprint(primary, dir.path + "/p.snap"));
}

TEST(ClusterReplicationTest, GapBatchIsRefusedWhole) {
  ScopedDir dir("gap");
  const auto primary_ptr = make_durable(dir.path + "/p");
  net::CloudServer& primary = *primary_ptr;
  net::CloudServer follower;
  const auto uploads = make_uploads(3, 5);
  for (const auto& m : uploads) ASSERT_TRUE(primary.ingest(m));
  primary.sync_wal();

  // A batch starting at seq 3 against a cursor of 0 would leave a hole.
  const auto tail = next_replicate_batch(dir.path + "/p", 0, 2, 0);
  ASSERT_TRUE(tail.has_value());
  ASSERT_EQ(tail->first_seq, 3u);
  const std::uint64_t rejects_before =
      obs::cluster_metrics().replicate_rejects.value();
  std::size_t applied = 99;
  const std::uint64_t cursor =
      apply_replicate_batch(follower, *tail, 0, &applied);
  EXPECT_EQ(cursor, 0u);  // unchanged
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(follower.indexed_segments(), 0u);
  EXPECT_EQ(obs::cluster_metrics().replicate_rejects.value(),
            rejects_before + 1);

  // The same batch is fine once the cursor has caught up to its start.
  const auto head = next_replicate_batch(dir.path + "/p", 0, 0, 2);
  ASSERT_TRUE(head.has_value());
  std::uint64_t c = apply_replicate_batch(follower, *head, 0);
  EXPECT_EQ(c, 2u);
  c = apply_replicate_batch(follower, *tail, c);
  EXPECT_EQ(c, primary.last_wal_seq());
  EXPECT_EQ(fingerprint(follower, dir.path + "/f.snap"),
            fingerprint(primary, dir.path + "/p.snap"));
}

TEST(ClusterReplicationTest, CursorNeverMovesBackwards) {
  ScopedDir dir("mono");
  const auto primary_ptr = make_durable(dir.path + "/p");
  net::CloudServer& primary = *primary_ptr;
  net::CloudServer follower;
  const auto uploads = make_uploads(4, 6);
  for (const auto& m : uploads) ASSERT_TRUE(primary.ingest(m));
  primary.sync_wal();

  const auto all = next_replicate_batch(dir.path + "/p", 0, 0, 0);
  ASSERT_TRUE(all.has_value());
  std::uint64_t cursor = apply_replicate_batch(follower, *all, 0);
  const std::uint64_t tip = cursor;

  // Stale prefix batches delivered late (reordering) leave the cursor at
  // the tip.
  const auto prefix = next_replicate_batch(dir.path + "/p", 0, 0, 2);
  ASSERT_TRUE(prefix.has_value());
  cursor = apply_replicate_batch(follower, *prefix, cursor);
  EXPECT_EQ(cursor, tip);
}

TEST(ClusterReplicationTest, EmptyBatchMeansCaughtUpAndAppliesNothing) {
  ScopedDir dir("empty");
  const auto primary_ptr = make_durable(dir.path + "/p");
  net::CloudServer& primary = *primary_ptr;
  net::CloudServer follower;
  const auto uploads = make_uploads(5, 3);
  for (const auto& m : uploads) ASSERT_TRUE(primary.ingest(m));
  primary.sync_wal();

  const std::uint64_t tip = primary.last_wal_seq();
  const auto batch = next_replicate_batch(dir.path + "/p", 0, tip, 0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->payloads.empty());
  EXPECT_EQ(batch->first_seq, tip + 1);
  std::size_t applied = 99;
  EXPECT_EQ(apply_replicate_batch(follower, *batch, tip, &applied), tip);
  EXPECT_EQ(applied, 0u);
}

TEST(ClusterReplicationTest, BatchWireRoundTripAndCorruptionRejection) {
  ReplicateBatchMessage m;
  m.primary = 2;
  m.first_seq = 17;
  m.payloads = {{1, 2, 3}, {}, {255, 0, 128, 7}};
  const auto bytes = encode_replicate_batch(m);
  const auto back = decode_replicate_batch(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->primary, m.primary);
  EXPECT_EQ(back->first_seq, m.first_seq);
  EXPECT_EQ(back->payloads, m.payloads);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_FALSE(decode_replicate_batch(bad).has_value());
  }

  ReplicateAckMessage ack;
  ack.follower = 1;
  ack.applied_seq = 42;
  const auto ack_bytes = encode_replicate_ack(ack);
  const auto ack_back = decode_replicate_ack(ack_bytes);
  ASSERT_TRUE(ack_back.has_value());
  EXPECT_EQ(ack_back->follower, 1u);
  EXPECT_EQ(ack_back->applied_seq, 42u);
}

}  // namespace
