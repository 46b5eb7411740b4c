#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

namespace e2e {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double supported_quantile(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

std::uint64_t self_time(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  for (Interval& c : children) {
    c.start = std::clamp(c.start, parent.start, parent.end);
    c.end = std::clamp(c.end, parent.start, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end <= reach) continue;
    covered += c.end - std::max(c.start, reach);
    reach = c.end;
  }
  return (parent.end - parent.start) - covered;
}

namespace {

int expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want))) return 0;
  std::cerr << "selftest: " << what << ": got " << got << ", want " << want
            << "\n";
  return 1;
}

}  // namespace

int selftest() {
  int fails = 0;
  // Percentiles: numpy.percentile(..., method="linear") gives these.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  fails += expect_near("p50 of 1..10", percentile(ten, 0.5), 5.5);
  fails += expect_near("p90 of 1..10", percentile(ten, 0.9), 9.1);
  fails += expect_near("p99 of 1..10", percentile(ten, 0.99), 9.91);
  fails += expect_near("p0 of 1..10", percentile(ten, 0.0), 1.0);
  fails += expect_near("p100 of 1..10", percentile(ten, 1.0), 10.0);
  fails += expect_near("single sample", percentile(std::vector<double>{42.0}, 0.99), 42.0);
  fails += expect_near("empty sample", percentile(std::vector<double>{}, 0.5), 0.0);
  std::vector<double> hundred;
  for (int i = 0; i <= 100; ++i) hundred.push_back(i);
  fails += expect_near("p99 of 0..100", percentile(hundred, 0.99), 99.0);

  // Ten samples beyond the reported tail.
  fails += expect_near("tail n=1000", supported_quantile(1000), 0.99);
  fails += expect_near("tail n=999", supported_quantile(999), 0.95);
  fails += expect_near("tail n=200", supported_quantile(200), 0.95);
  fails += expect_near("tail n=100", supported_quantile(100), 0.90);
  fails += expect_near("tail n=50", supported_quantile(50), 0.5);

  // Self time: disjoint, overlapping, nested and overhanging children.
  fails += expect_near("no children", self_time({100, 200}, {}), 100);
  fails += expect_near("disjoint children",
                       self_time({0, 100}, {{10, 20}, {50, 70}}), 70);
  fails += expect_near("overlapping children",
                       self_time({0, 100}, {{10, 40}, {30, 60}}), 50);
  fails += expect_near("nested children",
                       self_time({0, 100}, {{10, 90}, {20, 30}}), 20);
  fails += expect_near("overhanging child",
                       self_time({50, 100}, {{0, 60}, {90, 150}}), 30);
  fails += expect_near("child covers all", self_time({0, 10}, {{0, 10}}), 0);
  return fails;
}

}  // namespace e2e
