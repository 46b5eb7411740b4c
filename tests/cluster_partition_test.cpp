// Geo-partitioner and routing-table properties: the cell→partition layout
// must be a pure function of PartitionConfig (any restart recomputes the
// identical assignment), range pruning must never skip a partition that
// could hold a match, a rectangle that misses the deployment entirely must
// contact nobody, and the routing-table wire message must survive a round
// trip and reject corruption. A scoped query leg's owned cells and clip
// box must split a range's cells exactly by partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cluster/partition.hpp"
#include "cluster/router.hpp"
#include "cluster/wire.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"

namespace {

using namespace svg;
using namespace svg::cluster;

PartitionConfig city_config(std::size_t partitions, std::uint64_t salt = 0) {
  PartitionConfig cfg;
  cfg.bounds = sim::CityModel{}.bounds_deg();
  cfg.cells_per_side = 16;
  cfg.partitions = partitions;
  cfg.salt = salt;
  return cfg;
}

TEST(ClusterPartitionTest, LayoutIsDeterministicAcrossInstances) {
  const PartitionConfig cfg = city_config(4, 7);
  const GeoPartitioner a(cfg);
  const GeoPartitioner b(cfg);  // "restart": same config, fresh instance
  util::Xoshiro256 rng(42);
  const geo::Box2 bounds = cfg.bounds;
  for (int i = 0; i < 2000; ++i) {
    const double lng =
        bounds.min[0] + rng.uniform() * (bounds.max[0] - bounds.min[0]);
    const double lat =
        bounds.min[1] + rng.uniform() * (bounds.max[1] - bounds.min[1]);
    ASSERT_EQ(a.partition_of(lng, lat), b.partition_of(lng, lat));
    ASSERT_LT(a.partition_of(lng, lat), cfg.partitions);
  }
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    ASSERT_EQ(a.partition_of_cell(cell), b.partition_of_cell(cell));
  }
}

TEST(ClusterPartitionTest, SaltChangesTheLayout) {
  const GeoPartitioner a(city_config(4, 0));
  const GeoPartitioner b(city_config(4, 1));
  std::size_t differs = 0;
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    if (a.partition_of_cell(cell) != b.partition_of_cell(cell)) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(ClusterPartitionTest, EveryPartitionOwnsSomeCells) {
  // 256 cells over 4 partitions: the hash should not starve any partition.
  const GeoPartitioner p(city_config(4));
  std::vector<std::size_t> cells_per(4, 0);
  for (std::size_t cell = 0; cell < p.cell_count(); ++cell) {
    ++cells_per[p.partition_of_cell(cell)];
  }
  for (std::size_t part = 0; part < 4; ++part) {
    EXPECT_GT(cells_per[part], 0u) << "partition " << part << " owns no cell";
  }
}

TEST(ClusterPartitionTest, OutOfBoundsPositionsClampToBorderCells) {
  const PartitionConfig cfg = city_config(3);
  const GeoPartitioner p(cfg);
  // Far outside on every side: still a valid cell, so the FoV has an owner.
  EXPECT_EQ(p.cell_of(cfg.bounds.min[0] - 10.0, cfg.bounds.min[1] - 10.0),
            p.cell_of(cfg.bounds.min[0], cfg.bounds.min[1]));
  EXPECT_EQ(p.cell_of(cfg.bounds.max[0] + 10.0, cfg.bounds.max[1] + 10.0),
            p.cell_of(cfg.bounds.max[0] - 1e-9, cfg.bounds.max[1] - 1e-9));
  EXPECT_LT(p.partition_of(cfg.bounds.max[0] + 10.0, 0.0), cfg.partitions);
}

TEST(ClusterPartitionTest, RangePruningCoversEveryInteriorPoint) {
  // For any in-bounds point, a rectangle around it must fan out to (at
  // least) the partition that owns the point — the safety half of the
  // pruning contract.
  const GeoPartitioner p(city_config(5, 3));
  const geo::Box2 bounds = p.config().bounds;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double lng =
        bounds.min[0] + rng.uniform() * (bounds.max[0] - bounds.min[0]);
    const double lat =
        bounds.min[1] + rng.uniform() * (bounds.max[1] - bounds.min[1]);
    index::GeoTimeRange range;
    range.lng_min = lng - 1e-4;
    range.lng_max = lng + 1e-4;
    range.lat_min = lat - 1e-4;
    range.lat_max = lat + 1e-4;
    const auto parts = p.partitions_for_range(range);
    const std::size_t owner = p.partition_of(lng, lat);
    ASSERT_NE(std::find(parts.begin(), parts.end(), owner), parts.end())
        << "owner partition pruned away at (" << lng << ", " << lat << ")";
  }
}

TEST(ClusterPartitionTest, CellBoundaryStraddlingRangeFansToBothOwners) {
  const GeoPartitioner p(city_config(4, 1));
  const PartitionConfig& cfg = p.config();
  const double cell_w =
      (cfg.bounds.max[0] - cfg.bounds.min[0]) / cfg.cells_per_side;
  // A thin rectangle straddling the first vertical cell boundary.
  const double boundary = cfg.bounds.min[0] + cell_w;
  const double mid_lat = (cfg.bounds.min[1] + cfg.bounds.max[1]) / 2;
  index::GeoTimeRange range;
  range.lng_min = boundary - cell_w * 0.1;
  range.lng_max = boundary + cell_w * 0.1;
  range.lat_min = mid_lat;
  range.lat_max = mid_lat;
  const auto parts = p.partitions_for_range(range);
  const std::size_t left = p.partition_of(boundary - cell_w * 0.05, mid_lat);
  const std::size_t right = p.partition_of(boundary + cell_w * 0.05, mid_lat);
  EXPECT_NE(std::find(parts.begin(), parts.end(), left), parts.end());
  EXPECT_NE(std::find(parts.begin(), parts.end(), right), parts.end());
  // Sorted and unique.
  auto sorted = parts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(parts, sorted);
}

TEST(ClusterPartitionTest, DisjointRangeFansOutToNobody) {
  const GeoPartitioner p(city_config(4));
  const geo::Box2 bounds = p.config().bounds;
  index::GeoTimeRange range;
  // A rectangle a continent away from the deployment.
  range.lng_min = bounds.max[0] + 50.0;
  range.lng_max = bounds.max[0] + 51.0;
  range.lat_min = bounds.min[1];
  range.lat_max = bounds.max[1];
  EXPECT_TRUE(p.partitions_for_range(range).empty());
}

TEST(ClusterPartitionTest, OwnedCellsOfEveryPartitionUnionToTheRangeCells) {
  // Scoped fan-out legs split one range's cells by partition: summed over
  // the partitions, the owned cells must be exactly the cells the range
  // intersects, each owned by one partition, and every owned cell must lie
  // inside that leg's clip box.
  const GeoPartitioner p(city_config(5, 11));
  const PartitionConfig& cfg = p.config();
  const double w = cfg.bounds.max[0] - cfg.bounds.min[0];
  const double h = cfg.bounds.max[1] - cfg.bounds.min[1];
  const double cell_w = w / static_cast<double>(cfg.cells_per_side);
  const double cell_h = h / static_cast<double>(cfg.cells_per_side);
  util::Xoshiro256 rng(19);
  std::vector<std::uint8_t> owned;
  for (int i = 0; i < 500; ++i) {
    // Ranges of every size, some hanging past the deployment edge.
    index::GeoTimeRange range;
    const double cx = cfg.bounds.min[0] - 0.1 * w + rng.uniform() * 1.2 * w;
    const double cy = cfg.bounds.min[1] - 0.1 * h + rng.uniform() * 1.2 * h;
    const double hw = rng.uniform() * 0.3 * w;
    const double hh = rng.uniform() * 0.3 * h;
    range.lng_min = cx - hw;
    range.lng_max = cx + hw;
    range.lat_min = cy - hh;
    range.lat_max = cy + hh;

    // The cells the range intersects, by brute force over the raster.
    std::vector<std::size_t> want_cells;
    const bool hits = !(range.lng_min > cfg.bounds.max[0] ||
                        range.lng_max < cfg.bounds.min[0] ||
                        range.lat_min > cfg.bounds.max[1] ||
                        range.lat_max < cfg.bounds.min[1]);
    if (hits) {
      const std::size_t lo = p.cell_of(range.lng_min, range.lat_min);
      const std::size_t hi = p.cell_of(range.lng_max, range.lat_max);
      const std::size_t side = cfg.cells_per_side;
      for (std::size_t y = lo / side; y <= hi / side; ++y) {
        for (std::size_t x = lo % side; x <= hi % side; ++x) {
          want_cells.push_back(y * side + x);
        }
      }
    }
    std::vector<std::size_t> union_cells;
    for (std::uint32_t part = 0; part < cfg.partitions; ++part) {
      const std::uint32_t list[] = {part};
      const index::GeoTimeRange clip = p.owned_clip(range, list, owned);
      ASSERT_EQ(owned.size(), p.cell_count());
      for (std::size_t cell = 0; cell < owned.size(); ++cell) {
        if (owned[cell] == 0) continue;
        ASSERT_EQ(p.partition_of_cell(cell), part);
        union_cells.push_back(cell);
        // The owned cell's part of the range lies inside the clip.
        const std::size_t side = cfg.cells_per_side;
        const double x0 = cfg.bounds.min[0] +
                          static_cast<double>(cell % side) * cell_w;
        const double y0 = cfg.bounds.min[1] +
                          static_cast<double>(cell / side) * cell_h;
        const bool left = cell % side == 0, right = cell % side == side - 1;
        const bool low = cell / side == 0, high = cell / side == side - 1;
        EXPECT_LE(clip.lng_min, left ? range.lng_min
                                     : std::max(range.lng_min, x0));
        EXPECT_GE(clip.lng_max, right ? range.lng_max
                                      : std::min(range.lng_max, x0 + cell_w));
        EXPECT_LE(clip.lat_min, low ? range.lat_min
                                    : std::max(range.lat_min, y0));
        EXPECT_GE(clip.lat_max, high ? range.lat_max
                                     : std::min(range.lat_max, y0 + cell_h));
      }
    }
    std::sort(union_cells.begin(), union_cells.end());
    ASSERT_EQ(union_cells, want_cells) << "range " << i;

    // partitions_for_range is the set of partitions owning those cells.
    std::vector<std::size_t> want_parts;
    for (const std::size_t cell : want_cells) {
      want_parts.push_back(p.partition_of_cell(cell));
    }
    std::sort(want_parts.begin(), want_parts.end());
    want_parts.erase(std::unique(want_parts.begin(), want_parts.end()),
                     want_parts.end());
    ASSERT_EQ(p.partitions_for_range(range), want_parts);
  }
}

TEST(ClusterPartitionTest, OwnedClipKeepsPointsFloatRoundingPutsAcrossAnEdge) {
  // Where the deployment straddles the prime meridian, v - lo rounds, so
  // cell_of can place a point a few ulps below a cell edge (as the clip
  // computes the edge) in the cell above it. The clip's pad must keep
  // every such point of an owned cell inside the box.
  PartitionConfig cfg;
  cfg.bounds.min = {-0.0731, 51.28};
  cfg.bounds.max = {0.0419, 51.69};
  cfg.cells_per_side = 16;
  cfg.partitions = 5;
  cfg.salt = 11;
  const GeoPartitioner p(cfg);
  const std::size_t side = cfg.cells_per_side;
  std::vector<std::uint8_t> owned;
  std::size_t across = 0;  // points cell_of puts across the computed edge
  for (int axis = 0; axis < 2; ++axis) {
    const double lo = cfg.bounds.min[axis];
    const double cell =
        (cfg.bounds.max[axis] - lo) / static_cast<double>(side);
    const int other = 1 - axis;
    const double other_mid =
        (cfg.bounds.min[other] + cfg.bounds.max[other]) / 2;
    for (std::size_t x = 1; x < side; ++x) {
      const double edge = lo + static_cast<double>(x) * cell;
      double v = edge;
      for (int k = 0; k < 8; ++k) v = std::nextafter(v, -1e9);
      for (int k = 0; k <= 16; ++k, v = std::nextafter(v, 1e9)) {
        const double lng = axis == 0 ? v : other_mid;
        const double lat = axis == 0 ? other_mid : v;
        const std::size_t c = p.cell_of(lng, lat);
        const std::size_t cx = axis == 0 ? c % side : c / side;
        across += (v < edge && cx == x) || (v > edge && cx < x) ? 1 : 0;
        // A range across the edge, a quarter cell each way.
        index::GeoTimeRange range;
        range.lng_min = lng - (axis == 0 ? cell / 4 : 0);
        range.lng_max = lng + (axis == 0 ? cell / 4 : 0);
        range.lat_min = lat - (axis == 1 ? cell / 4 : 0);
        range.lat_max = lat + (axis == 1 ? cell / 4 : 0);
        const std::uint32_t list[] = {
            static_cast<std::uint32_t>(p.partition_of_cell(c))};
        const index::GeoTimeRange clip = p.owned_clip(range, list, owned);
        ASSERT_EQ(owned[c], 1);
        EXPECT_LE(clip.lng_min, lng) << "axis " << axis << " edge " << x;
        EXPECT_GE(clip.lng_max, lng) << "axis " << axis << " edge " << x;
        EXPECT_LE(clip.lat_min, lat) << "axis " << axis << " edge " << x;
        EXPECT_GE(clip.lat_max, lat) << "axis " << axis << " edge " << x;
      }
    }
  }
  EXPECT_GT(across, 0u) << "no point fell across an edge: the pad is untested";
}

TEST(ClusterPartitionTest, OwnedClipOfAnUnownedListIsEmpty) {
  const GeoPartitioner p(city_config(4, 2));
  const geo::Box2 b = p.config().bounds;
  index::GeoTimeRange range;  // one interior point: a single cell
  range.lng_min = range.lng_max = (b.min[0] + b.max[0]) / 2;
  range.lat_min = range.lat_max = (b.min[1] + b.max[1]) / 2;
  const std::uint32_t other =
      static_cast<std::uint32_t>((p.partition_of(range.lng_min,
                                                 range.lat_min) + 1) % 4);
  const std::uint32_t list[] = {other};
  std::vector<std::uint8_t> owned;
  const index::GeoTimeRange clip = p.owned_clip(range, list, owned);
  EXPECT_GT(clip.lng_min, clip.lng_max);
  EXPECT_EQ(std::count(owned.begin(), owned.end(), 1), 0);
}

TEST(ClusterPartitionTest, RoutingTableWireRoundTrip) {
  RoutingTableMessage msg;
  msg.partition = city_config(5, 9);
  msg.table = RoutingTable::identity(5);
  msg.table.epoch = 3;
  msg.table.primary_of[2] = 4;  // one partition failed over

  const auto bytes = encode_routing_table(msg);
  const auto back = decode_routing_table(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->partition, msg.partition);
  EXPECT_EQ(back->table, msg.table);

  // A decoded table must rebuild the identical partitioner (the
  // restart-determinism guarantee, carried over the wire).
  const GeoPartitioner a(msg.partition);
  const GeoPartitioner b(back->partition);
  for (std::size_t cell = 0; cell < a.cell_count(); ++cell) {
    ASSERT_EQ(a.partition_of_cell(cell), b.partition_of_cell(cell));
  }
}

TEST(ClusterPartitionTest, RoutingTableRejectsCorruptionAndTruncation) {
  RoutingTableMessage msg;
  msg.partition = city_config(3);
  msg.table = RoutingTable::identity(3);
  const auto bytes = encode_routing_table(msg);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_FALSE(decode_routing_table(bad).has_value())
        << "flip at byte " << i << " decoded anyway";
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_routing_table(std::span(bytes.data(), len)).has_value());
  }
}

TEST(ClusterPartitionTest, SubUploadIdsAreDeterministicAndNonZero) {
  for (std::uint64_t id = 1; id < 500; ++id) {
    for (std::size_t part = 0; part < 8; ++part) {
      const std::uint64_t sub = sub_upload_id(id, part);
      EXPECT_NE(sub, 0u);
      EXPECT_EQ(sub, sub_upload_id(id, part));  // pure function
    }
    EXPECT_NE(sub_upload_id(id, 0), sub_upload_id(id, 1));
  }
}

}  // namespace
