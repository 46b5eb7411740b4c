#pragma once
// Geo-cell partitioning for the multi-node cluster (docs/CLUSTER.md). A
// fixed raster over the deployment area (the same cell math as
// index::GridIndex) assigns every FoV position to a cell; a
// splitmix-constant hash of the cell id assigns every cell to one of N
// partitions. The layout is a pure function of PartitionConfig, so any
// restart — or any other process handed the same config — computes the
// identical assignment; nothing about the mapping is ever persisted.
//
// Partitions are the stable unit of ownership: the RoutingTable maps each
// partition to the node currently *serving* it, and only that indirection
// changes on failover (partition→cell geometry never moves).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/bbox.hpp"
#include "index/fov_index.hpp"

namespace svg::cluster {

/// The deployment raster + partition count. `salt` perturbs the
/// cell→partition hash so two overlapping deployments can interleave
/// differently; identical configs always produce identical layouts.
struct PartitionConfig {
  geo::Box2 bounds;  ///< deployment area in (lng, lat) degrees
  std::size_t cells_per_side = 16;
  std::size_t partitions = 1;
  std::uint64_t salt = 0;

  bool operator==(const PartitionConfig&) const = default;
};

class GeoPartitioner {
 public:
  explicit GeoPartitioner(PartitionConfig cfg);

  /// Raster cell for a position. Out-of-bounds positions clamp into the
  /// border cells (exactly like GridIndex), so a camera standing just
  /// past the deployment edge still has an owner. Inline: a scoped query
  /// leg runs it once per candidate row.
  [[nodiscard]] std::size_t cell_of(double lng, double lat) const noexcept {
    return axis(lat, cfg_.bounds.min[1], cell_h_) * side_ +
           axis(lng, cfg_.bounds.min[0], cell_w_);
  }

  /// Owning partition of a cell — the deterministic hash.
  [[nodiscard]] std::size_t partition_of_cell(
      std::size_t cell) const noexcept;
  [[nodiscard]] std::size_t partition_of(double lng,
                                         double lat) const noexcept;

  /// Partitions whose cells intersect the (already expanded) search
  /// rectangle — sorted, unique. Empty when the rectangle misses the
  /// deployment bounds entirely: zero fan-out, no node contacted.
  [[nodiscard]] std::vector<std::size_t> partitions_for_range(
      const index::GeoTimeRange& range) const;

  /// One fan-out leg's share of the (already expanded) search rectangle:
  /// sets owned[c] (resized to cell_count(), all others 0) for every cell
  /// the rectangle intersects whose partition is in `partitions` (sorted),
  /// and returns the rectangle clipped to the bounding box of those cells.
  /// The clip leaves border cells open outward (cell_of clamps
  /// out-of-bounds cameras into them) and is padded by a millionth of a
  /// cell, so float rounding at a cell edge cannot drop a row; exactness
  /// comes from testing owned[cell_of(row)], not from the box. With no
  /// owned cell the clip is empty (lng_min = +inf > lng_max = -inf).
  [[nodiscard]] index::GeoTimeRange owned_clip(
      const index::GeoTimeRange& range,
      std::span<const std::uint32_t> partitions,
      std::vector<std::uint8_t>& owned) const;

  [[nodiscard]] const PartitionConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return side_ * side_;
  }

 private:
  [[nodiscard]] std::size_t axis(double v, double lo,
                                 double cell) const noexcept {
    const auto i = static_cast<std::int64_t>((v - lo) / cell);
    return static_cast<std::size_t>(
        std::clamp<std::int64_t>(i, 0, static_cast<std::int64_t>(side_) - 1));
  }

  /// The one cell-range walk behind partitions_for_range and owned_clip:
  /// visit(x, y) for every cell the rectangle intersects, row-major.
  /// Visits nothing when the rectangle misses the deployment bounds.
  template <typename F>
  void for_each_cell(const index::GeoTimeRange& range, F&& visit) const {
    if (range.lng_min > cfg_.bounds.max[0] ||
        range.lng_max < cfg_.bounds.min[0] ||
        range.lat_min > cfg_.bounds.max[1] ||
        range.lat_max < cfg_.bounds.min[1]) {
      return;
    }
    const std::size_t x0 = axis(range.lng_min, cfg_.bounds.min[0], cell_w_);
    const std::size_t x1 = axis(range.lng_max, cfg_.bounds.min[0], cell_w_);
    const std::size_t y0 = axis(range.lat_min, cfg_.bounds.min[1], cell_h_);
    const std::size_t y1 = axis(range.lat_max, cfg_.bounds.min[1], cell_h_);
    for (std::size_t y = y0; y <= y1; ++y) {
      for (std::size_t x = x0; x <= x1; ++x) visit(x, y);
    }
  }

  PartitionConfig cfg_;
  std::size_t side_;
  double cell_w_, cell_h_;
};

/// partition → serving node. Starts as the identity (node i serves
/// partition i); failover promotion retargets one partition and bumps the
/// epoch so stale tables are recognizable on the wire.
struct RoutingTable {
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> primary_of;  ///< indexed by partition

  [[nodiscard]] static RoutingTable identity(std::size_t partitions);

  bool operator==(const RoutingTable&) const = default;
};

}  // namespace svg::cluster
