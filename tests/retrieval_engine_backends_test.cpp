// The retrieval engine is generic over the index backend: every backend
// exposing query(GeoTimeRange, visitor) must produce identical ranked
// results. This pins the contract the bench comparisons rely on.

#include <gtest/gtest.h>

#include "index/fov_index.hpp"
#include "index/grid_index.hpp"
#include "index/kdtree_index.hpp"
#include "retrieval/engine.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;

class EngineBackendsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    city_.extent_m = 2000.0;
    util::Xoshiro256 rng(123);
    reps_ = sim::random_representative_fovs(4000, city_, 0, 7'200'000, rng);
    for (const auto& r : reps_) {
      rtree_.insert(r);
      linear_.insert(r);
      grid_.insert(r);
    }
    kd_ = std::make_unique<index::KdTreeIndex>(reps_);

    cfg_.camera = {30.0, 100.0};
    cfg_.orientation_slack_deg = 5.0;
    cfg_.top_n = 15;
  }

  retrieval::Query random_query(util::Xoshiro256& rng) const {
    retrieval::Query q;
    q.center = city_.random_point(rng);
    q.radius_m = rng.uniform(20.0, 120.0);
    q.t_start = static_cast<core::TimestampMs>(rng.bounded(6'000'000));
    q.t_end = q.t_start + 1'800'000;
    return q;
  }

  static std::vector<std::pair<std::uint64_t, std::uint32_t>> keys(
      const std::vector<retrieval::RankedResult>& rs) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    for (const auto& r : rs) {
      out.emplace_back(r.rep.video_id, r.rep.segment_id);
    }
    return out;
  }

  sim::CityModel city_;
  std::vector<core::RepresentativeFov> reps_;
  index::FovIndex rtree_;
  index::LinearIndex linear_;
  index::GridIndex grid_{sim::CityModel{.extent_m = 2000.0}.bounds_deg(),
                         48};
  std::unique_ptr<index::KdTreeIndex> kd_;
  retrieval::RetrievalConfig cfg_;
};

TEST_F(EngineBackendsTest, AllBackendsReturnIdenticalRankings) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::LinearIndex> e_linear(linear_, cfg_);
  retrieval::RetrievalEngine<index::GridIndex> e_grid(grid_, cfg_);
  retrieval::RetrievalEngine<index::KdTreeIndex> e_kd(*kd_, cfg_);

  util::Xoshiro256 rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto q = random_query(rng);
    const auto a = keys(e_rtree.search(q));
    ASSERT_EQ(a, keys(e_linear.search(q))) << "linear, query " << i;
    ASSERT_EQ(a, keys(e_grid.search(q))) << "grid, query " << i;
    ASSERT_EQ(a, keys(e_kd.search(q))) << "kd, query " << i;
  }
}

TEST_F(EngineBackendsTest, TracesAgreeOnCandidateCounts) {
  retrieval::RetrievalEngine<index::FovIndex> e_rtree(rtree_, cfg_);
  retrieval::RetrievalEngine<index::GridIndex> e_grid(grid_, cfg_);
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 20; ++i) {
    const auto q = random_query(rng);
    retrieval::SearchTrace ta, tb;
    (void)e_rtree.search(q, &ta);
    (void)e_grid.search(q, &tb);
    ASSERT_EQ(ta.candidates, tb.candidates) << i;
    ASSERT_EQ(ta.after_filter, tb.after_filter) << i;
  }
}

TEST_F(EngineBackendsTest, ConcurrentWrapperMatchesPlainIndex) {
  index::ConcurrentFovIndex concurrent;
  for (const auto& r : reps_) concurrent.insert(r);
  retrieval::RetrievalEngine<index::FovIndex> plain(rtree_, cfg_);
  retrieval::RetrievalEngine<index::ConcurrentFovIndex> wrapped(concurrent,
                                                                cfg_);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 15; ++i) {
    const auto q = random_query(rng);
    ASSERT_EQ(keys(plain.search(q)), keys(wrapped.search(q))) << i;
  }
}

}  // namespace
