#include "cluster/partition.hpp"

#include <algorithm>
#include <limits>

#include "util/rng.hpp"

namespace svg::cluster {

GeoPartitioner::GeoPartitioner(PartitionConfig cfg) : cfg_(cfg) {
  side_ = std::max<std::size_t>(1, cfg_.cells_per_side);
  cfg_.cells_per_side = side_;
  cfg_.partitions = std::max<std::size_t>(1, cfg_.partitions);
  const double w = cfg_.bounds.max[0] - cfg_.bounds.min[0];
  const double h = cfg_.bounds.max[1] - cfg_.bounds.min[1];
  cell_w_ = w > 0 ? w / static_cast<double>(side_) : 1.0;
  cell_h_ = h > 0 ? h / static_cast<double>(side_) : 1.0;
}

std::size_t GeoPartitioner::partition_of_cell(std::size_t cell) const noexcept {
  // SplitMix64 spreads the (cell, salt) pair across the full 64-bit space
  // so adjacent cells land on unrelated partitions — geographic hotspots
  // spread over the cluster instead of hammering one node.
  util::SplitMix64 mix(static_cast<std::uint64_t>(cell) ^
                       (cfg_.salt * 0x9E3779B97F4A7C15ULL));
  return static_cast<std::size_t>(mix.next() % cfg_.partitions);
}

std::size_t GeoPartitioner::partition_of(double lng,
                                         double lat) const noexcept {
  return partition_of_cell(cell_of(lng, lat));
}

std::vector<std::size_t> GeoPartitioner::partitions_for_range(
    const index::GeoTimeRange& range) const {
  // Zero fan-out contract: a rectangle that misses the deployment bounds
  // entirely cannot match any in-bounds content, so no node is contacted.
  // (Border-clamped out-of-bounds cameras remain reachable by any query
  // whose rectangle overlaps the border cells — see docs/CLUSTER.md.)
  std::vector<std::size_t> out;
  for_each_cell(range, [&](std::size_t x, std::size_t y) {
    out.push_back(partition_of_cell(y * side_ + x));
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

index::GeoTimeRange GeoPartitioner::owned_clip(
    const index::GeoTimeRange& range,
    std::span<const std::uint32_t> partitions,
    std::vector<std::uint8_t>& owned) const {
  owned.assign(cell_count(), 0);
  std::size_t x0 = side_, y0 = side_, x1 = 0, y1 = 0;
  for_each_cell(range, [&](std::size_t x, std::size_t y) {
    const std::size_t cell = y * side_ + x;
    if (!std::binary_search(partitions.begin(), partitions.end(),
                            partition_of_cell(cell))) {
      return;
    }
    owned[cell] = 1;
    x0 = std::min(x0, x);
    y0 = std::min(y0, y);
    x1 = std::max(x1, x);
    y1 = std::max(y1, y);
  });
  index::GeoTimeRange clip = range;
  if (x0 > x1) {  // no owned cell: an empty box the descent rejects at once
    clip.lng_min = std::numeric_limits<double>::infinity();
    clip.lng_max = -clip.lng_min;
    return clip;
  }
  const double pad_w = cell_w_ * 1e-6;
  const double pad_h = cell_h_ * 1e-6;
  const double lng0 = cfg_.bounds.min[0];
  const double lat0 = cfg_.bounds.min[1];
  // Border cells stay open outward: the rectangle itself bounds them.
  if (x0 > 0) {
    clip.lng_min = std::max(clip.lng_min,
                            lng0 + static_cast<double>(x0) * cell_w_ - pad_w);
  }
  if (x1 + 1 < side_) {
    clip.lng_max = std::min(
        clip.lng_max, lng0 + static_cast<double>(x1 + 1) * cell_w_ + pad_w);
  }
  if (y0 > 0) {
    clip.lat_min = std::max(clip.lat_min,
                            lat0 + static_cast<double>(y0) * cell_h_ - pad_h);
  }
  if (y1 + 1 < side_) {
    clip.lat_max = std::min(
        clip.lat_max, lat0 + static_cast<double>(y1 + 1) * cell_h_ + pad_h);
  }
  return clip;
}

RoutingTable RoutingTable::identity(std::size_t partitions) {
  RoutingTable t;
  t.primary_of.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    t.primary_of[p] = static_cast<std::uint32_t>(p);
  }
  return t;
}

}  // namespace svg::cluster
