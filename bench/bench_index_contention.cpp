// Mixed upload/query contention on the server's index
// (index::ConcurrentFovIndex, the R-tree behind one reader/writer lock). A
// city-scale server's real workload is many paced queriers plus a trickle
// of bulk ingest bursts (a provider flushing its queued backlog, or a
// snapshot being applied); the failure mode of the single lock is that
// every burst takes the writer lock once and stalls the entire read side
// for the whole burst — milliseconds for a few thousand segments. This
// bench measures how far that shows in the read tail.
//
// Methodology (honest on a 1-core box):
//   * Open-loop arrivals. Each reader thread follows a fixed schedule at
//     its offered rate; latency is measured from the *scheduled* arrival,
//     not the actual start, so queuing behind a writer burst is charged to
//     the latency distribution (coordinated-omission corrected).
//   * Writers are paced the same way; each burst is one insert_batch() of
//     `--burst` segments from one new provider, exactly what
//     CloudServer::ingest does with a queued-upload flush.
//   * Offered load is auto-calibrated to ~22% of one core from measured
//     single-thread query/burst costs. Below saturation, throughput
//     follows the offered rate and the signal lives in the latency tail;
//     a saturating drive would just measure the scheduler. Small uploads
//     (~100 segments, holds of a few hundred us) barely dent the read
//     tail — it fattens once a burst hold is long against the query cost.
//
// Flags: --seconds N (per cell, default 3), --json (machine-readable,
// the generator for BENCH_contention.json), and workload knobs
// --burst N --util X --wutil X (defaults below).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "index/fov_index.hpp"
#include "sim/crowd.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace svg;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCorpusProviders = 200;
constexpr std::size_t kSegmentsPerProvider = 200;
std::size_t g_burst_segments = 4096;
constexpr core::TimestampMs kT0 = 1'400'000'000'000;
constexpr core::TimestampMs kDay = 24LL * 3600 * 1000;
// Rate-setting budgets, as fractions of the one core. Queries are sized
// to do real index work (tens of us) so the op rate stays in the low
// thousands/s — above that, sleep_until wakeups and context switches
// (~10 us each) dominate the load and the bench just measures the
// scheduler. Writers get a small slice: bursts should be distinct events
// whose holds land in the read tail, not continuous write pressure.
double g_target_utilization = 0.22;
double g_writer_utilization = 0.02;  // of the target, writers get this

struct Workload {
  std::vector<std::vector<core::RepresentativeFov>> uploads;  // per provider
  std::vector<index::GeoTimeRange> queries;
};

/// One provider's upload: `n` segments sharing a video_id, scattered over
/// the city and the day (what capture_session hands to ingest()).
std::vector<core::RepresentativeFov> make_upload(std::uint64_t video_id,
                                                 std::size_t n,
                                                 const sim::CityModel& city,
                                                 util::Xoshiro256& rng) {
  std::vector<core::RepresentativeFov> reps;
  reps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::RepresentativeFov r;
    r.video_id = video_id;
    r.segment_id = static_cast<std::uint32_t>(i);
    r.fov.p = city.random_point(rng);
    r.fov.theta_deg = rng.uniform() * 360.0;
    r.t_start = kT0 + static_cast<core::TimestampMs>(
                          rng.uniform() * static_cast<double>(kDay));
    r.t_end = r.t_start + 5'000 +
              static_cast<core::TimestampMs>(rng.uniform() * 55'000.0);
    reps.push_back(r);
  }
  return reps;
}

Workload make_workload() {
  sim::CityModel city;
  util::Xoshiro256 rng(4242);
  Workload wl;
  wl.uploads.reserve(kCorpusProviders);
  for (std::size_t v = 0; v < kCorpusProviders; ++v) {
    wl.uploads.push_back(
        make_upload(v + 1, kSegmentsPerProvider, city, rng));
  }
  // Wide boxes on purpose: each query should do real index work (~100 us)
  // so the paced op rate stays low enough that per-wakeup scheduler cost
  // does not swamp the lock dynamics being measured.
  for (int i = 0; i < 400; ++i) {
    const auto c = city.random_point(rng);
    const double half = rng.chance(0.5) ? 0.002 : 0.006;
    const auto t0 =
        kT0 + static_cast<core::TimestampMs>(rng.uniform() * 20.0 * 3.6e6);
    wl.queries.push_back({c.lng - half, c.lng + half, c.lat - half,
                          c.lat + half, t0, t0 + 4LL * 3600 * 1000});
  }
  return wl;
}

struct Pctls {
  double p50 = 0, p99 = 0, max = 0;
};

Pctls percentiles_us(std::vector<std::uint64_t>& ns) {
  Pctls p;
  if (ns.empty()) return p;
  std::sort(ns.begin(), ns.end());
  p.p50 = static_cast<double>(ns[ns.size() / 2]) / 1e3;
  p.p99 = static_cast<double>(ns[(ns.size() * 99) / 100]) / 1e3;
  p.max = static_cast<double>(ns.back()) / 1e3;
  return p;
}

struct CellResult {
  std::string backend;
  int readers = 0, writers = 0;
  double offered_qps = 0, achieved_qps = 0;
  Pctls read_us;
  double offered_segments_per_s = 0, achieved_segments_per_s = 0;
  Pctls write_burst_us;
};

/// Single-thread costs used to set offered rates.
struct Calibration {
  double query_s = 0;  ///< mean per query across the query set
  double burst_s = 0;  ///< mean per insert_batch of g_burst_segments
};

template <typename Index>
Calibration calibrate(Index& idx, const Workload& wl) {
  Calibration c;
  {
    util::Stopwatch sw;
    std::size_t sink = 0;
    for (const auto& q : wl.queries) {
      idx.query(q, [&](const core::RepresentativeFov&) { ++sink; });
    }
    c.query_s = sw.elapsed_ms() / 1e3 /
                static_cast<double>(wl.queries.size());
    if (sink == 0) std::cerr << "calibration queries hit nothing\n";
  }
  {
    sim::CityModel city;
    util::Xoshiro256 rng(777);
    constexpr int kBursts = 16;
    util::Stopwatch sw;
    for (int b = 0; b < kBursts; ++b) {
      const auto burst =
          make_upload(1'000'000 + static_cast<std::uint64_t>(b),
                      g_burst_segments, city, rng);
      idx.insert_batch(burst);
    }
    c.burst_s = sw.elapsed_ms() / 1e3 / kBursts;
  }
  return c;
}

template <typename Index>
CellResult run_cell(Index& idx, const Workload& wl, const char* backend,
                    int readers, int writers, double per_reader_qps,
                    double per_writer_bps, double seconds) {
  CellResult res;
  res.backend = backend;
  res.readers = readers;
  res.writers = writers;
  res.offered_qps = per_reader_qps * readers;
  res.offered_segments_per_s =
      per_writer_bps * writers * static_cast<double>(g_burst_segments);

  std::vector<std::vector<std::uint64_t>> read_lat(
      static_cast<std::size_t>(readers));
  std::vector<std::vector<std::uint64_t>> write_lat(
      static_cast<std::size_t>(writers));
  std::atomic<std::uint64_t> segments_written{0};
  std::vector<std::thread> threads;
  const auto t_begin = Clock::now() + std::chrono::milliseconds(100);
  const auto t_end =
      t_begin + std::chrono::nanoseconds(
                    static_cast<std::uint64_t>(seconds * 1e9));

  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& lat = read_lat[static_cast<std::size_t>(r)];
      const double period_ns = 1e9 / per_reader_qps;
      // Phase-stagger threads so arrivals don't align on period boundaries.
      const auto phase = std::chrono::nanoseconds(
          static_cast<std::uint64_t>(period_ns * r / readers));
      std::size_t qi = static_cast<std::size_t>(r) * 37;
      for (std::uint64_t i = 0;; ++i) {
        const auto scheduled =
            t_begin + phase +
            std::chrono::nanoseconds(
                static_cast<std::uint64_t>(period_ns * static_cast<double>(i)));
        if (scheduled >= t_end) break;
        std::this_thread::sleep_until(scheduled);
        std::size_t hits = 0;
        idx.query(wl.queries[qi % wl.queries.size()],
                  [&](const core::RepresentativeFov&) { ++hits; });
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - scheduled)
                .count()));
        qi += 7;
      }
    });
  }
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto& lat = write_lat[static_cast<std::size_t>(w)];
      sim::CityModel city;
      util::Xoshiro256 rng(9'000 + static_cast<std::uint64_t>(w));
      std::uint64_t vid =
          2'000'000 + static_cast<std::uint64_t>(w) * 100'000;
      const double period_ns = 1e9 / per_writer_bps;
      const auto phase = std::chrono::nanoseconds(
          static_cast<std::uint64_t>(period_ns * (w + 0.5) / writers));
      for (std::uint64_t i = 0;; ++i) {
        const auto scheduled =
            t_begin + phase +
            std::chrono::nanoseconds(
                static_cast<std::uint64_t>(period_ns * static_cast<double>(i)));
        if (scheduled >= t_end) break;
        const auto burst = make_upload(++vid, g_burst_segments, city, rng);
        std::this_thread::sleep_until(scheduled);
        idx.insert_batch(burst);
        lat.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - scheduled)
                .count()));
        segments_written.fetch_add(g_burst_segments,
                                   std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t_begin).count();

  std::vector<std::uint64_t> all_reads;
  for (auto& v : read_lat) {
    all_reads.insert(all_reads.end(), v.begin(), v.end());
  }
  std::vector<std::uint64_t> all_writes;
  for (auto& v : write_lat) {
    all_writes.insert(all_writes.end(), v.begin(), v.end());
  }
  res.achieved_qps = static_cast<double>(all_reads.size()) / elapsed_s;
  res.achieved_segments_per_s =
      static_cast<double>(segments_written.load()) / elapsed_s;
  res.read_us = percentiles_us(all_reads);
  res.write_burst_us = percentiles_us(all_writes);
  return res;
}

void write_json(std::ostream& os, const std::vector<CellResult>& cells,
                const Calibration& cal, double seconds) {
  os << "{\n"
     << "  \"note\": \"regenerate: build/bench/bench_index_contention "
        "--json --seconds "
     << seconds << "\",\n"
     << "  \"workload\": {\"corpus_segments\": "
     << kCorpusProviders * kSegmentsPerProvider
     << ", \"burst_segments\": " << g_burst_segments
     << ", \"target_utilization\": " << g_target_utilization
     << ", \"writer_utilization\": " << g_writer_utilization << "},\n"
     << "  \"calibration\": {\"query_us\": " << cal.query_s * 1e6
     << ", \"burst_us\": " << cal.burst_s * 1e6 << "},\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << "    {\"backend\": \"" << c.backend << "\", \"readers\": "
       << c.readers << ", \"writers\": " << c.writers
       << ", \"offered_qps\": " << c.offered_qps
       << ", \"achieved_qps\": " << c.achieved_qps
       << ", \"read_p50_us\": " << c.read_us.p50
       << ", \"read_p99_us\": " << c.read_us.p99
       << ", \"read_max_us\": " << c.read_us.max
       << ", \"offered_segments_per_s\": " << c.offered_segments_per_s
       << ", \"achieved_segments_per_s\": " << c.achieved_segments_per_s
       << ", \"write_burst_p50_us\": " << c.write_burst_us.p50
       << ", \"write_burst_p99_us\": " << c.write_burst_us.p99 << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 3.0;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--burst") == 0 && i + 1 < argc) {
      g_burst_segments = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--util") == 0 && i + 1 < argc) {
      g_target_utilization = std::atof(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--wutil") == 0 && i + 1 < argc) {
      g_writer_utilization = std::atof(argv[i + 1]);
    }
  }

  const Workload wl = make_workload();

  // Calibrate offered rates from single-thread costs, so the offered
  // schedule stays below the utilization target — a latency tail is only
  // meaningful when the index is not saturated.
  Calibration cal;
  {
    index::ConcurrentFovIndex concurrent;
    for (const auto& u : wl.uploads) concurrent.insert_batch(u);
    cal = calibrate(concurrent, wl);
  }

  struct Cfg {
    int readers, writers;
  };
  const Cfg cfgs[] = {{4, 1}, {8, 2}, {16, 4}};

  std::vector<CellResult> cells;
  for (const auto& cfg : cfgs) {
    // Writers get a fixed slice of the core; readers fill to the target.
    const double per_writer_bps =
        g_writer_utilization / (cfg.writers * cal.burst_s);
    const double per_reader_qps =
        (g_target_utilization - g_writer_utilization) /
        (cfg.readers * cal.query_s);
    index::ConcurrentFovIndex idx;
    for (const auto& u : wl.uploads) idx.insert_batch(u);
    cells.push_back(run_cell(idx, wl, "concurrent", cfg.readers, cfg.writers,
                             per_reader_qps, per_writer_bps, seconds));
  }

  if (json) {
    write_json(std::cout, cells, cal, seconds);
  } else {
    std::cout << "=== Index contention: open-loop paced readers + upload "
                 "bursts (latency from scheduled arrival) ===\n";
    std::cout << "calibration: query "
              << util::Table::num(cal.query_s * 1e6, 1) << " us, burst of "
              << g_burst_segments << " inserts "
              << util::Table::num(cal.burst_s * 1e6, 1) << " us\n\n";
    util::Table table({"backend", "r:w", "offered_qps", "achieved_qps",
                       "read_p50_us", "read_p99_us", "seg/s offered",
                       "seg/s achieved", "burst_p99_us"});
    for (const auto& c : cells) {
      table.add_row({c.backend,
                     std::to_string(c.readers) + ":" +
                         std::to_string(c.writers),
                     util::Table::num(c.offered_qps, 0),
                     util::Table::num(c.achieved_qps, 0),
                     util::Table::num(c.read_us.p50, 1),
                     util::Table::num(c.read_us.p99, 1),
                     util::Table::num(c.offered_segments_per_s, 0),
                     util::Table::num(c.achieved_segments_per_s, 0),
                     util::Table::num(c.write_burst_us.p99, 1)});
    }
    table.print(std::cout);
    std::cout << "\nReading: every cell sees the same offered load. The "
                 "single lock serializes every query behind whole-burst "
                 "writer holds, which shows up as a read p99 far above the "
                 "uncontended query cost.\n";
  }
  return 0;
}
