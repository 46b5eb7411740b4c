#pragma once
// The benchmark's own arithmetic: exact percentiles over raw samples and
// span self time. Kept apart from main.cpp so `e2e_bench --selftest`
// can check both on fixed inputs.

#include <cstdint>
#include <vector>

namespace e2e {

/// Percentile of `samples` (q in [0, 1]) by linear interpolation between
/// the two closest ranks, the definition numpy calls "linear": position
/// q·(n−1) in the sorted samples. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Highest of p99, p95, p90, p50 that leaves at least ten samples beyond
/// it (n·(1−q) ≥ 10), so a reported tail is never a single outlier. 0.5
/// when even the median has fewer than ten samples above it.
[[nodiscard]] double supported_quantile(std::size_t n);

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Self time of a span: its length minus the part of it covered by the
/// union of its children (children are clipped to the parent, and
/// overlapping children are counted once).
[[nodiscard]] std::uint64_t self_time(Interval parent,
                                      std::vector<Interval> children);

/// Runs the fixed-input checks of the two functions above; returns the
/// number of failures (each is printed to stderr).
[[nodiscard]] int selftest();

}  // namespace e2e
