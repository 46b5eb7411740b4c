// End-to-end benchmark of the two user-facing paths through the
// in-process cluster: a phone's upload (segmentation on the client,
// UploadQueue, cluster::Router split, per-node WAL append and index
// insert, ring replication) and an inquirer's query (Router fan-out,
// per-node range search, orientation filter and rank, k-way merge).
//
// One process runs one workload: it builds a 3-node durable Cluster in a
// fresh directory, drives the workload only through public functions for
// --seconds, checks the outputs, and prints every metric with its unit.
// The obs::*_metrics() families are process-global, so two workloads in
// one process would mix their counts.
//
// Untraced runs give the end-to-end metrics. With --trace 1 the run
// records its own spans around every call into the system and routes
// through a benchmark-built Router over Cluster::exchange_fn() whose
// exchange is wrapped in a per-node-leg span; at the end it reads the
// svg_* families once for the layers inside a node. See NOTES.md.
//
// Exit codes: 0 ok, 1 bad arguments, 2 correctness check failed, 3 the
// run deadline passed with operations still outstanding.

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/router.hpp"
#include "cluster/wire.hpp"
#include "core/similarity.hpp"
#include "index/fov_index.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/upload_queue.hpp"
#include "net/wire.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "retrieval/engine.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace svg;
using e2e::now_ns;
using e2e::ScopedSpan;

// ---------------------------------------------------------------------------
// Fixed parameters. Offered rates are constants, never calibrated per run,
// so both commits of a comparison get the same load.

constexpr std::size_t kNodes = 3;
constexpr std::uint32_t kTopN = 10;
/// Records per replication round: large enough that one round ships
/// everything past a follower's cursor (each round re-reads the WAL from
/// its start, so many small rounds cost quadratic time — NOTES.md).
constexpr std::size_t kReplicateBatch = 1 << 20;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// The replication thread starts a replicate_round every this many ms (at
/// once if the previous round overran). Every round re-reads each node's
/// whole WAL (NOTES.md, Known effects), so back-to-back rounds would keep a
/// core busy with re-reads and crowd out the workload on a small box.
constexpr std::uint64_t kReplicationPeriodMs = 100;
/// Pause after writing back dirty pages, before each set-up and before the
/// phones record (settle_disk).
constexpr int kSettleMs = 300;
/// After the send window closes, operations in flight get this long to
/// finish before the run is declared stuck.
constexpr double kGraceSeconds = 20.0;
/// Router::search results compared against the reference engine.
constexpr std::size_t kCheckQueries = 40;
constexpr std::uint64_t kUploadVideoBase = 1'000'000'000ULL;
constexpr double kSegmenterThreshold = 0.5;
/// Phones per session pool (city-wide, and at the hotspot when there is
/// one); each records 1–3 sessions.
constexpr std::uint32_t kProviders = 400;
struct WorkloadSpec {
  const char* name;
  std::size_t retained_segments;  ///< preloaded city-uniform corpus
  std::size_t hot_segments;       ///< preloaded at the hotspot (flash_crowd)
  std::size_t query_threads;      ///< closed-loop inquirers
  double upload_rate;             ///< open-loop uploads per second
  double query_rate;              ///< open-loop queries per second
  std::size_t open_workers;       ///< threads serving the open schedule
  double hot_share;               ///< share of open arrivals at the hotspot
};

// Threads per workload (generators + the replication thread) stay at
// nproc = 4 or below.
constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    // A city's phones stop recording and upload, independently of each
    // other (an open loop); a small city-uniform query stream runs beside.
    {"crowd_upload", 0, 0, 0, 500.0, 100.0, 2, 0.0},
    // Two inquirers search a retained day of city-wide video in a closed
    // loop; a fixed-rate upload stream runs beside them.
    {"city_query", 500'000, 0, 2, 200.0, 0.0, 1, 0.0},
    // An event draws uploaders and inquirers to one spot: open loop on a
    // seeded Poisson schedule, most arrivals at the hotspot hour.
    {"flash_crowd", 150'000, 4'000, 0, 100.0, 200.0, 2, 0.8},
}};

/// The hotspot: the centre of one partition raster cell, so hot uploads
/// land on one partition, and its hour of the day. The place is fixed, not
/// drawn from the seed: which partitions a hot query touches depends on
/// it, and that must not change between seeds.
constexpr std::size_t kHotCellX = 5, kHotCellY = 9;
constexpr double kHotRadiusM = 120.0;
constexpr core::TimestampMs kHotHourStart = e2e::kDayStart + 18 * e2e::kHourMs;

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_root = ".";
  std::string commit = "unknown";
  bool selftest = false;
};

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Sleep until `t_ns`, then spin the last stretch so the wake-up is not
/// late by a scheduler tick.
void wait_until(std::uint64_t t_ns) {
  constexpr std::uint64_t kSpinNs = 200'000;
  std::uint64_t now = now_ns();
  if (now + kSpinNs < t_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - kSpinNs));
  }
  while (now_ns() < t_ns) {
  }
}

/// Write back every dirty page and let the disk settle, so that timing
/// does not start while the kernel is still writing or discarding the
/// blocks of an earlier set-up's files.
void settle_disk() {
  ::sync();
  std::this_thread::sleep_for(std::chrono::milliseconds(kSettleMs));
}

/// Sleep until `t_ns` or until `stop` is set, whichever comes first.
void wait_until_or(std::uint64_t t_ns, const std::atomic<bool>& stop) {
  for (std::uint64_t now = now_ns(); now < t_ns && !stop.load(); now = now_ns()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<std::uint64_t>(t_ns - now, 1'000'000)));
  }
}

std::string fs_type_name(const std::string& path) {
  struct statfs s{};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
      return os.str();
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Start a new peak-resident-set window: the kernel resets VmHWM to the
/// current resident set. False if it refused, in which case VmHWM stays
/// the peak since the process started.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// VmHWM: the peak resident set since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replication: one thread starts a replicate_round every kReplicationPeriodMs;
// every acked upload waits until each follower's applied cursor covers the
// WAL tip its legs left.

class ReplicaTracker {
 public:
  void add(std::uint64_t ack_ns, const std::array<std::uint64_t, kNodes>& need) {
    std::lock_guard lk(mu_);
    pending_.push_back({ack_ns, need});
  }
  /// A replicate_round ended at `end_ns` with these applied cursors.
  void on_round(std::uint64_t end_ns,
                const std::array<std::uint64_t, kNodes>& cursor) {
    std::lock_guard lk(mu_);
    std::erase_if(pending_, [&](const Pending& p) {
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (p.need[i] > cursor[i]) return false;
      }
      replica_ms_.push_back(static_cast<double>(end_ns - p.ack_ns) / 1e6);
      return true;
    });
  }
  [[nodiscard]] std::vector<double> samples() const {
    std::lock_guard lk(mu_);
    return replica_ms_;
  }

 private:
  struct Pending {
    std::uint64_t ack_ns;
    std::array<std::uint64_t, kNodes> need;
  };
  mutable std::mutex mu_;
  std::vector<Pending> pending_;
  std::vector<double> replica_ms_;
};

struct ReplicationStats {
  std::uint64_t rounds = 0;
  std::uint64_t applied = 0;
  std::uint64_t lag_max = 0;
  /// Wall time of the rounds that shipped something (idle rounds only
  /// find every cursor at its tip).
  std::vector<double> busy_round_ms;
};

/// Ship until a full round applies nothing and every stream is caught up.
void replicate_to_quiescence(cluster::Cluster& c) {
  for (;;) {
    const std::size_t applied = c.replicate_round(kReplicateBatch);
    bool caught_up = true;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.replication_lag(i) > 0) caught_up = false;
    }
    if (applied == 0 && caught_up) return;
  }
}

// ---------------------------------------------------------------------------
// Per-thread generator state.

struct ThreadResult {
  std::vector<double> upload_ms;
  std::vector<double> query_us;
  std::vector<double> lateness_ms;
  std::uint64_t uploads_attempted = 0;
  std::uint64_t uploads_failed = 0;
  std::uint64_t queries_attempted = 0;
  std::uint64_t queries_failed = 0;
  std::uint64_t acked_segments = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t terminal_acks = 0;  ///< kAccepted/kDuplicate acks returned
  double recorded_min = 0.0;
  /// Per upload: the phone's thread CPU time (on_frame, finish_recording,
  /// encode) per recorded minute.
  std::vector<double> client_ms_per_min;
  /// Thread CPU time of delivering uploads: UploadQueue attempts through
  /// the Router to every node leg's WAL append and index insert (the legs
  /// run in-process, on this thread). Total, and per acked segment of
  /// each upload.
  std::uint64_t ingest_cpu_ns = 0;
  std::vector<double> ingest_us_per_segment;
  std::uint64_t query_cpu_ns = 0;   ///< thread CPU time of Router::search
  /// Per completed query: the thread CPU time of Router::search. Every leg
  /// runs in-process on this thread, so it covers fan-out, each node's
  /// range search, filter and rank, and the merge.
  std::vector<double> query_cpu_us;
  /// Encoded bytes of every acked upload (the correctness oracle decodes
  /// them exactly as the nodes did).
  std::vector<std::vector<std::uint8_t>> acked_bytes;
  net::UploadQueueStats queue;
  std::uint64_t leg_rows = 0;       ///< traced: rows returned by query legs
  std::uint64_t leg_duplicates = 0; ///< traced: rows the merge dedups away
};

/// Query-leg rows seen by the traced exchange for the current search.
thread_local std::vector<std::pair<std::uint64_t, std::uint32_t>> t_leg_keys;

/// A generator thread's operation counts, readable while it runs: the run
/// deadline reads them from the main thread when a thread is stuck.
struct Progress {
  std::atomic<std::uint64_t> done{0};    ///< operations completed
  std::atomic<std::uint64_t> failed{0};  ///< of those, failed
  std::atomic<bool> in_op{false};        ///< an operation is under way
};

struct Run {
  cluster::Cluster& cluster;
  cluster::Router& router;  ///< cluster.router(), or the traced router
  net::UploadQueue::AttemptFn channel;
  ReplicaTracker& replicas;
  std::atomic<std::uint64_t>& next_video;
  core::SimilarityModel model{core::CameraIntrinsics{}};
};

/// Open loop: wait for the operation's due time and record how late the
/// generator started it (the operation's latency counts from `due_ns`).
void record_lateness(ThreadResult& out, std::uint64_t due_ns) {
  wait_until(due_ns);
  const std::uint64_t now = now_ns();
  out.lateness_ms.push_back(static_cast<double>(now - due_ns) / 1e6);
}

/// A phone's recording, segmented frame by frame and not yet stopped.
struct Recording {
  std::unique_ptr<net::MobileClient> client;
  std::uint64_t frames = 0;
  double minutes = 0.0;
  std::uint64_t cpu_ns = 0;  ///< thread CPU time of its on_frame calls
};

Recording record(Run& run, const sim::ProviderSession& session) {
  Recording r;
  r.client = std::make_unique<net::MobileClient>(
      run.next_video.fetch_add(1), run.model,
      core::SegmenterConfig{kSegmenterThreshold});
  const std::uint64_t cpu0 = thread_cpu_ns();
  {
    ScopedSpan span("client.on_frame");
    for (const core::FovRecord& rec : session.records) r.client->on_frame(rec);
  }
  r.cpu_ns = thread_cpu_ns() - cpu0;
  r.frames = session.records.size();
  if (!session.records.empty()) {
    r.minutes = static_cast<double>(session.records.back().t -
                                    session.records.front().t) /
                60'000.0;
  }
  return r;
}

/// The recording stops at `due_ns`; latency runs from then to the ack.
void upload(Run& run, net::UploadQueue& queue, ThreadResult& out,
            Recording& rec, std::uint64_t due_ns) {
  ++out.uploads_attempted;
  out.frames += rec.frames;
  out.recorded_min += rec.minutes;
  record_lateness(out, due_ns);
  const std::uint64_t t0 = due_ns;
  ScopedSpan request("client.upload");
  const std::uint64_t cpu0 = thread_cpu_ns();
  net::UploadMessage msg;
  {
    ScopedSpan span("client.finish_recording");
    msg = rec.client->finish_recording();
  }
  {
    ScopedSpan span("client.encode_upload");  // UploadQueue::enqueue encodes
    queue.enqueue(msg);
  }
  if (rec.minutes > 0.0) {
    out.client_ms_per_min.push_back(
        static_cast<double>(rec.cpu_ns + thread_cpu_ns() - cpu0) / 1e6 /
        rec.minutes);
  }

  std::vector<std::uint8_t> last_bytes;
  const std::uint64_t deliver_cpu0 = thread_cpu_ns();
  const bool ok = queue.drain([&](const std::vector<std::uint8_t>& bytes) {
    ScopedSpan span("queue.attempt");
    out.bytes_sent += bytes.size();
    auto ack = run.channel(bytes);
    if (ack && (ack->status == net::UploadAckStatus::kAccepted ||
                ack->status == net::UploadAckStatus::kDuplicate)) {
      ++out.terminal_acks;
      last_bytes = bytes;
    }
    return ack;
  });
  const std::uint64_t t1 = now_ns();
  const std::uint64_t deliver_cpu = thread_cpu_ns() - deliver_cpu0;
  out.ingest_cpu_ns += deliver_cpu;
  if (!ok) {
    ++out.uploads_failed;
    return;
  }
  out.upload_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  out.acked_segments += msg.segments.size();
  if (!msg.segments.empty()) {
    out.ingest_us_per_segment.push_back(static_cast<double>(deliver_cpu) / 1e3 /
                                        static_cast<double>(msg.segments.size()));
  }
  // The WAL tip each leg's node reached by the ack: replicated once every
  // follower's cursor covers it.
  std::array<std::uint64_t, kNodes> need{};
  for (const core::RepresentativeFov& rep : msg.segments) {
    const std::size_t node =
        run.router.partitioner().partition_of(rep.fov.p.lng, rep.fov.p.lat);
    if (need[node] == 0) need[node] = run.cluster.node(node)->last_wal_seq();
  }
  run.replicas.add(t1, need);
  out.acked_bytes.push_back(std::move(last_bytes));
}

void do_query(Run& run, ThreadResult& out, const retrieval::Query& q,
              std::uint64_t due_ns) {
  ++out.queries_attempted;
  if (due_ns != 0) record_lateness(out, due_ns);
  const std::uint64_t t0 = due_ns != 0 ? due_ns : now_ns();
  bool complete = false;
  t_leg_keys.clear();
  const std::uint64_t cpu0 = thread_cpu_ns();
  {
    ScopedSpan span("router.search");
    const auto hits = run.router.search(q, kTopN, &complete);
    (void)hits;
  }
  const std::uint64_t t1 = now_ns();
  const std::uint64_t cpu = thread_cpu_ns() - cpu0;
  out.query_cpu_ns += cpu;
  if (!complete) {
    ++out.queries_failed;
    return;
  }
  out.query_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  out.query_cpu_us.push_back(static_cast<double>(cpu) / 1e3);
  if (!t_leg_keys.empty()) {
    std::sort(t_leg_keys.begin(), t_leg_keys.end());
    const auto distinct = static_cast<std::uint64_t>(
        std::unique(t_leg_keys.begin(), t_leg_keys.end()) - t_leg_keys.begin());
    out.leg_rows += t_leg_keys.size();
    out.leg_duplicates += t_leg_keys.size() - distinct;
  }
}

// ---------------------------------------------------------------------------
// Inputs and set-up.

struct Inputs {
  std::vector<sim::ProviderSession> sessions;      ///< city-uniform phones
  std::vector<sim::ProviderSession> hot_sessions;  ///< phones at the event
  sim::CityModel hot_area;
  std::vector<std::vector<std::uint8_t>> preload;  ///< encoded uploads
};

sim::CityModel hotspot() {
  const geo::Box2 b = sim::CityModel{}.bounds_deg();
  const cluster::PartitionConfig pc;  // the raster the cluster uses
  const double w = (b.max[0] - b.min[0]) / static_cast<double>(pc.cells_per_side);
  const double h = (b.max[1] - b.min[1]) / static_cast<double>(pc.cells_per_side);
  sim::CityModel area;
  area.center = {b.min[1] + (static_cast<double>(kHotCellY) + 0.5) * h,
                 b.min[0] + (static_cast<double>(kHotCellX) + 0.5) * w};
  area.extent_m = 2.0 * kHotRadiusM;
  return area;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  const sim::CityModel city;
  in.hot_area = hotspot();
  util::Xoshiro256 rng(seed);
  in.sessions =
      e2e::crowd_sessions(kProviders, city, e2e::kDayStart, e2e::kDayMs, rng);
  if (spec.hot_share > 0.0) {
    in.hot_sessions = e2e::crowd_sessions(kProviders, in.hot_area,
                                          kHotHourStart, e2e::kHourMs, rng);
  }
  auto corpus = e2e::retained_corpus(spec.retained_segments, city,
                                     e2e::kDayStart, e2e::kDayMs, 1, rng);
  auto hot = e2e::retained_corpus(spec.hot_segments, in.hot_area,
                                  kHotHourStart, e2e::kHourMs,
                                  corpus.size() + 1, rng);
  corpus.insert(corpus.end(), std::make_move_iterator(hot.begin()),
                std::make_move_iterator(hot.end()));
  in.preload.reserve(corpus.size());
  util::SplitMix64 ids(seed ^ 0x5052454C4F4144ULL);
  for (net::UploadMessage& m : corpus) {
    m.upload_id = ids.next() | 1;  // never 0 (0 = legacy id-less upload)
    in.preload.push_back(net::encode_upload(m));
  }
  return in;
}

std::unique_ptr<cluster::Cluster> make_cluster(const std::string& dir) {
  cluster::ClusterConfig cfg;  // deployment defaults: backend, admission off
  cfg.nodes = kNodes;
  cfg.partition.bounds = sim::CityModel{}.bounds_deg();
  cfg.data_dir = dir;
  // ClusterConfig defaults to kNone; kBatch is a standalone server's
  // production default, so the benchmark measures that.
  cfg.fsync = store::FsyncPolicy::kBatch;
  return std::make_unique<cluster::Cluster>(cfg);
}

/// Route the retained corpus through the router and replicate it.
/// Returns false if any preload upload was not accepted.
bool preload(cluster::Cluster& c, const Inputs& in) {
  const auto channel = c.router().upload_channel();
  for (const auto& bytes : in.preload) {
    const auto ack = channel(bytes);
    if (!ack || ack->status != net::UploadAckStatus::kAccepted) return false;
  }
  replicate_to_quiescence(c);
  return true;
}

// ---------------------------------------------------------------------------
// Correctness.

std::vector<core::RepresentativeFov> decode_all(
    const std::vector<std::vector<std::uint8_t>>& encoded) {
  std::vector<core::RepresentativeFov> reps;
  for (const auto& bytes : encoded) {
    const auto msg = net::decode_upload(bytes);
    if (msg) reps.insert(reps.end(), msg->segments.begin(), msg->segments.end());
  }
  return reps;
}

bool same_hit(const retrieval::RankedResult& a,
              const retrieval::RankedResult& b) {
  return a.rep.video_id == b.rep.video_id &&
         a.rep.segment_id == b.rep.segment_id &&
         a.rep.t_start == b.rep.t_start && a.rep.t_end == b.rep.t_end &&
         a.rep.fov == b.rep.fov && a.distance_m == b.distance_m &&
         a.relevance == b.relevance;
}

/// Every check prints what it found; returns the number that failed.
int check_outputs(cluster::Cluster& c, const std::vector<ThreadResult>& results,
                  const std::vector<core::RepresentativeFov>& acked,
                  const std::vector<retrieval::Query>& sample,
                  const std::string& scratch) {
  int fails = 0;
  // 1. Every enqueued upload acked exactly once.
  std::uint64_t enq = 0, acks = 0, terminal = 0, lost = 0;
  for (const ThreadResult& r : results) {
    enq += r.queue.enqueued;
    acks += r.queue.acked;
    terminal += r.terminal_acks;
    lost += r.queue.exhausted + r.queue.rejected;
  }
  const bool once = enq == acks && acks == terminal && lost == 0;
  std::cout << "check: uploads enqueued " << enq << ", acked " << acks
            << ", terminal acks " << terminal << ", lost " << lost
            << (once ? "  ok" : "  FAILED") << "\n";
  fails += once ? 0 : 1;

  // 2. The cluster's canonical content equals the acked corpus.
  std::filesystem::create_directories(scratch);
  const auto got = c.canonical_bytes(scratch);
  const auto want = cluster::canonical_fingerprint(acked);
  const bool same = got.has_value() && *got == want;
  std::cout << "check: canonical_bytes over " << acked.size()
            << " acked segments " << (same ? "ok" : "FAILED") << "\n";
  fails += same ? 0 : 1;

  // 3. Router::search equals a reference engine over a linear scan of the
  //    wire-decoded corpus (the wire quantises positions and θ, so the
  //    reference sees exactly what the nodes indexed).
  index::LinearIndex linear;
  for (const core::RepresentativeFov& rep : acked) (void)linear.insert(rep);
  retrieval::RetrievalConfig cfg;
  cfg.top_n = kTopN;
  const retrieval::RetrievalEngine<index::LinearIndex> reference(linear, cfg,
                                                                 nullptr);
  std::size_t mismatched = 0, hits = 0;
  for (const retrieval::Query& q : sample) {
    bool complete = false;
    const auto got_hits = c.router().search(q, kTopN, &complete);
    const auto want_hits = reference.search(q);
    hits += want_hits.size();
    bool equal = complete && got_hits.size() == want_hits.size();
    for (std::size_t i = 0; equal && i < got_hits.size(); ++i) {
      equal = same_hit(got_hits[i], want_hits[i]);
    }
    mismatched += equal ? 0 : 1;
  }
  std::cout << "check: " << sample.size() << " sampled queries (" << hits
            << " reference hits), " << mismatched << " mismatched"
            << (mismatched == 0 ? "  ok" : "  FAILED") << "\n";
  fails += mismatched == 0 ? 0 : 1;
  return fails;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_timing(const char* name, const std::vector<double>& v,
                  const char* unit) {
  const double q = e2e::supported_quantile(v.size());
  std::cout << "  " << std::left << std::setw(22) << name << " n=" << v.size()
            << "  p50=" << e2e::percentile(v, 0.5) << " " << unit
            << "  p99=" << e2e::percentile(v, 0.99) << " " << unit
            << "  (highest supported tail: p" << std::lround(q * 100) << ")\n";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> concat(const std::vector<ThreadResult>& rs,
                           std::vector<double> ThreadResult::*field) {
  std::vector<double> out;
  for (const ThreadResult& r : rs) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

int run_workload(const WorkloadSpec& spec, const Options& opt) {
  namespace fs = std::filesystem;
  const std::string dir = fs::absolute(opt.data_root).string() + "/run-" +
                          spec.name + "-" + std::to_string(getpid());

  // --- set-up, repeated; the last one is kept ------------------------------
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<cluster::Cluster> cluster;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cluster.reset();
    in = Inputs{};
    fs::remove_all(dir);
    fs::create_directories(dir);
    settle_disk();
    const std::uint64_t t0 = now_ns();
    in = make_inputs(spec, opt.seed);
    cluster = make_cluster(dir + "/cluster");
    if (!preload(*cluster, in)) {
      std::cout << "set-up: a preload upload was not accepted\n";
      return 2;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::string fs_name = fs_type_name(dir);

  std::cout << "provenance: {\"workload\": \"" << spec.name
            << "\", \"seed\": " << opt.seed
            << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(__VERSION__)
            << "\", \"build_type\": \"" << E2E_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(opt.commit)
            << "\", \"fsync\": \"batch\", \"data_fs\": \"" << fs_name
            << "\", \"index_backend\": \"default\", \"admission\": \"off\""
            << ", \"nodes\": " << kNodes << "}\n";
  std::cout << "set-up: " << in.preload.size() << " preloaded uploads, "
            << in.sessions.size() << " + " << in.hot_sessions.size()
            << " recording sessions\n";

  // --- the router the workload drives --------------------------------------
  std::unique_ptr<cluster::Router> traced_router;
  if (opt.trace) {
    const auto exchange = cluster->exchange_fn();
    const cluster::GeoPartitioner& part = cluster->router().partitioner();
    traced_router = std::make_unique<cluster::Router>(
        part, retrieval::RetrievalConfig{},
        cluster::RoutingTable::identity(part.config().partitions),
        [exchange](std::size_t node, std::span<const std::uint8_t> request) {
          const bool query =
              !request.empty() && request.front() == cluster::kMsgQueryFanout;
          std::vector<std::vector<std::uint8_t>> replies;
          {
            ScopedSpan span(query ? "node.query_leg" : "node.upload_leg");
            replies = exchange(node, request);
          }
          if (query) {
            for (const auto& reply : replies) {
              if (const auto res = cluster::decode_fanout_results(reply)) {
                for (const auto& hit : res->results) {
                  t_leg_keys.emplace_back(hit.rep.video_id, hit.rep.segment_id);
                }
                break;
              }
            }
          }
          return replies;
        });
  }
  cluster::Router& router = opt.trace ? *traced_router : cluster->router();
  net::UploadQueue::AttemptFn channel;
  if (opt.trace) {
    channel = [&router](const std::vector<std::uint8_t>& bytes)
        -> std::optional<net::UploadAck> {
      const auto msg = net::decode_upload(bytes);
      if (!msg) return std::nullopt;
      ScopedSpan span("router.route_upload");
      return router.route_upload(*msg);
    };
  } else {
    channel = router.upload_channel();
  }

  ReplicaTracker replicas;
  std::atomic<std::uint64_t> next_video{kUploadVideoBase};
  Run run{*cluster, router, channel, replicas, next_video};

  // --- the open-loop schedule ----------------------------------------------
  struct Arrival {
    double due_s;
    bool upload;
    std::size_t recording;  ///< uploads: index into `recordings`
    retrieval::Query query;
  };
  std::vector<Arrival> schedule;
  // Phones record before their upload is due, on the phone and not on
  // the generator's clock: their frames are segmented here, ahead of the
  // timed phase, and the thread CPU time counts towards
  // client_cpu_ms_per_video_min.
  std::vector<Recording> recordings;
  e2e::SpanLog span_log;
  if (opt.trace) e2e::set_span_log(&span_log);
  settle_disk();
  {
    util::Xoshiro256 rng(opt.seed ^ 0x5343484544554C45ULL);
    const sim::CityModel city;
    // One recording after another on this thread: two recorder threads in
    // parallel shared a core's hyperthreads in some runs and not in others,
    // which moved client_cpu_ms_per_video_min by a quarter between runs.
    std::size_t next_session = 0, next_hot = 0;
    for (const double t : e2e::poisson_arrivals(spec.upload_rate, opt.seconds, rng)) {
      const bool hot = !in.hot_sessions.empty() && rng.uniform() < spec.hot_share;
      const sim::ProviderSession& session =
          hot ? in.hot_sessions[next_hot++ % in.hot_sessions.size()]
              : in.sessions[next_session++ % in.sessions.size()];
      schedule.push_back({t, true, recordings.size(), {}});
      recordings.push_back(record(run, session));
    }
    // The recordings hold what the phones still have to send; the sensor
    // streams are no longer needed and would count in peak_rss_mb.
    in.sessions = {};
    in.hot_sessions = {};
    for (const double t : e2e::poisson_arrivals(spec.query_rate, opt.seconds, rng)) {
      const bool hot = rng.uniform() < spec.hot_share;
      schedule.push_back(
          {t, false, 0,
           hot ? e2e::make_query(in.hot_area, kHotHourStart - e2e::kHourMs,
                                 kHotHourStart, rng)
               : e2e::make_query(city, e2e::kDayStart,
                                 e2e::kDayStart + e2e::kDayMs - 2 * e2e::kHourMs,
                                 rng)});
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });
  }

  // --- timed phase -----------------------------------------------------------
  const std::size_t n_threads = spec.query_threads + spec.open_workers;
  std::vector<ThreadResult> results(n_threads);
  std::vector<std::unique_ptr<net::UploadQueue>> queues;
  for (std::size_t t = 0; t < n_threads; ++t) {
    queues.push_back(std::make_unique<net::UploadQueue>(
        net::RetryPolicy{}, opt.seed * 1000 + t + 1));
  }
  std::unique_ptr<Progress[]> progress(new Progress[n_threads]);
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> next_arrival{0};
  std::atomic<bool> stop_replication{false};
  ReplicationStats repl;

  // peak_rss_mb covers the timed phase: what the cluster holds, not the
  // inputs the benchmark generated and has freed by now.
  malloc_trim(0);
  const bool rss_window = reset_peak_rss();
  obs::Registry::global().reset();  // svg_* families cover the timed phase
  const std::uint64_t cpu_start = process_cpu_ns();
  std::uint64_t replication_cpu_ns = 0;
  const std::uint64_t start = now_ns();
  const std::uint64_t send_end =
      start + static_cast<std::uint64_t>(opt.seconds * 1e9);

  std::thread replicator([&] {
    std::array<std::uint64_t, kNodes> cursor{};
    std::uint64_t next_round = now_ns();
    for (;;) {
      wait_until_or(next_round, stop_replication);
      if (stop_replication.load()) break;
      next_round += kReplicationPeriodMs * 1'000'000ULL;
      const std::uint64_t begin = now_ns();
      next_round = std::max(next_round, begin);
      const std::size_t applied = cluster->replicate_round(kReplicateBatch);
      const std::uint64_t end = now_ns();
      if (applied > 0) {
        repl.busy_round_ms.push_back(static_cast<double>(end - begin) / 1e6);
      }
      for (std::size_t i = 0; i < kNodes; ++i) {
        // Tip first, lag second: the lag's own tip read is the same or
        // newer, so the cursor can only be under-estimated.
        const std::uint64_t tip = cluster->node(i)->last_wal_seq();
        const std::uint64_t lag = cluster->replication_lag(i);
        cursor[i] = tip > lag ? tip - lag : 0;
        repl.lag_max = std::max(repl.lag_max, lag);
      }
      replicas.on_round(end, cursor);
      ++repl.rounds;
      repl.applied += applied;
    }
    replication_cpu_ns = thread_cpu_ns();
  });

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& out = results[t];
      net::UploadQueue& queue = *queues[t];
      util::Xoshiro256 rng(opt.seed ^ (0xC0FFEEULL * (t + 1)));
      const sim::CityModel city;
      while (true) {
        if (t < spec.query_threads) {
          if (now_ns() >= send_end) break;
          const auto q = e2e::make_query(
              city, e2e::kDayStart,
              e2e::kDayStart + e2e::kDayMs - 2 * e2e::kHourMs, rng);
          progress[t].in_op = true;
          do_query(run, out, q, 0);
        } else {
          const std::size_t i = next_arrival.fetch_add(1);
          if (i >= schedule.size()) break;
          const Arrival& a = schedule[i];
          const std::uint64_t due =
              start + static_cast<std::uint64_t>(a.due_s * 1e9);
          progress[t].in_op = true;
          if (a.upload) {
            upload(run, queue, out, recordings[a.recording], due);
          } else {
            do_query(run, out, a.query, due);
          }
        }
        progress[t].done = out.uploads_attempted + out.queries_attempted;
        progress[t].failed = out.uploads_failed + out.queries_failed;
        progress[t].in_op = false;
      }
      out.queue = queue.stats();
      finished.fetch_add(1);
    });
  }

  // Wait for the generators, but never past the run deadline.
  const std::uint64_t deadline =
      send_end + static_cast<std::uint64_t>(kGraceSeconds * 1e9);
  while (finished.load() < n_threads && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (finished.load() < n_threads) {
    // Outstanding: operations in flight plus scheduled ones never started,
    // on top of what the threads completed (and failed) so far.
    std::uint64_t done = 0, failed = 0, stuck = 0;
    for (std::size_t t = 0; t < n_threads; ++t) {
      done += progress[t].done;
      failed += progress[t].failed;
      stuck += progress[t].in_op ? 1 : 0;
    }
    const std::uint64_t unstarted =
        schedule.size() - std::min(schedule.size(), next_arrival.load());
    const std::uint64_t outstanding = std::max<std::uint64_t>(1, stuck + unstarted);
    std::cout << "run deadline passed: " << outstanding
              << " operations outstanding (counted as failed)\n";
    std::cout << "{\"correct\": false, \"attempted\": " << done + outstanding
              << ", \"failed\": " << failed + outstanding
              << ", \"metrics\": {}}" << std::endl;
    std::_Exit(3);  // stuck threads cannot be joined
  }
  for (std::thread& th : threads) th.join();
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  stop_replication = true;
  replicator.join();
  const double timed_cpu_s = static_cast<double>(process_cpu_ns() - cpu_start) / 1e9;
  const double peak_mb = peak_rss_mb();
  e2e::set_span_log(nullptr);

  // --- per-layer numbers, read once before the check touches anything -----
  std::vector<Metric> layer;
  std::uint64_t acked_segments = 0, frames = 0, bytes_sent = 0;
  std::uint64_t q_attempts = 0, q_acked = 0, leg_rows = 0, leg_dups = 0;
  double recorded_min = 0.0;
  std::uint64_t attempted = 0, failed = 0, queries_done = 0;
  std::uint64_t ingest_cpu_ns = 0, query_cpu_ns = 0;
  for (const ThreadResult& r : results) {
    ingest_cpu_ns += r.ingest_cpu_ns;
    query_cpu_ns += r.query_cpu_ns;
    acked_segments += r.acked_segments;
    frames += r.frames;
    bytes_sent += r.bytes_sent;
    recorded_min += r.recorded_min;
    q_attempts += r.queue.attempts;
    q_acked += r.queue.acked;
    leg_rows += r.leg_rows;
    leg_dups += r.leg_duplicates;
    attempted += r.uploads_attempted + r.queries_attempted;
    failed += r.uploads_failed + r.queries_failed;
    queries_done += r.query_us.size();
  }
  const auto upload_ms = concat(results, &ThreadResult::upload_ms);
  const auto query_us = concat(results, &ThreadResult::query_us);
  const auto query_cpu_us = concat(results, &ThreadResult::query_cpu_us);
  const auto lateness_ms = concat(results, &ThreadResult::lateness_ms);
  const auto client_ms_per_min = concat(results, &ThreadResult::client_ms_per_min);
  const auto ingest_us_per_segment =
      concat(results, &ThreadResult::ingest_us_per_segment);
  const auto replica_ms = replicas.samples();
  std::uint64_t segments_out = 0;
  for (const ThreadResult& r : results) {
    for (const auto& bytes : r.acked_bytes) {
      if (const auto m = net::decode_upload(bytes)) segments_out += m->segments.size();
    }
  }

  if (opt.trace) {
    const auto spans = span_log.summarize();
    const auto get = [&](const char* name) -> const e2e::SpanSummary& {
      static const e2e::SpanSummary empty;
      const auto it = spans.find(name);
      return it == spans.end() ? empty : it->second;
    };
    double on_frame_us = 0.0;
    for (const double v : get("client.on_frame").total_us) on_frame_us += v;
    const auto& route = get("router.route_upload");
    const auto& search = get("router.search");
    const auto& up_leg = get("node.upload_leg");
    const auto& q_leg = get("node.query_leg");
    double busy_ms = 0.0;
    for (const double v : repl.busy_round_ms) busy_ms += v;

    const auto& wal = obs::wal_metrics();
    const auto& ix = obs::index_metrics();
    const auto& runs = obs::index_run_metrics();
    const auto& ret = obs::retrieval_metrics();
    const auto& cm = obs::cluster_metrics();
    const auto us = [](const obs::Histogram& h, double q) {
      return h.quantile(q) / 1e3;
    };
    layer = {
        {"core.segment_ns_per_frame", ratio(on_frame_us * 1e3, double(frames)), "ns"},
        {"core.frames_per_segment", ratio(double(frames), double(segments_out)), "count"},
        {"net.wire.encode_us", e2e::percentile(get("client.encode_upload").total_us, 0.5), "us"},
        {"net.wire.bytes_per_segment", ratio(double(bytes_sent), double(segments_out)), "B"},
        {"net.queue.attempts_per_upload", ratio(double(q_attempts), double(q_acked)), "count"},
        {"cluster.router.route_self_us_p50", e2e::percentile(route.self_us, 0.5), "us"},
        {"cluster.router.route_self_us_p99", e2e::percentile(route.self_us, 0.99), "us"},
        {"cluster.router.legs_per_upload",
         ratio(double(cm.subuploads.value()), double(cm.uploads_routed.value())), "count"},
        {"node.upload_leg_us_p50", e2e::percentile(up_leg.total_us, 0.5), "us"},
        {"node.upload_leg_us_p99", e2e::percentile(up_leg.total_us, 0.99), "us"},
        {"node.query_leg_us_p50", e2e::percentile(q_leg.total_us, 0.5), "us"},
        {"node.query_leg_us_p99", e2e::percentile(q_leg.total_us, 0.99), "us"},
        {"store.wal.append_us_p50", us(wal.append_ns, 0.5), "us"},
        {"store.wal.append_us_p99", us(wal.append_ns, 0.99), "us"},
        {"store.wal.records_per_batch", wal.batch_records.mean(), "count"},
        {"store.wal.fsyncs", double(wal.fsyncs.value()), "count"},
        {"store.wal.bytes_per_user_byte",
         ratio(double(wal.bytes.value()), double(bytes_sent)), "ratio"},
        {"index.insert_us_p50", us(ix.insert_ns, 0.5), "us"},
        {"index.query_us_p50", us(ix.query_ns, 0.5), "us"},
        {"index.query_us_p99", us(ix.query_ns, 0.99), "us"},
        {"index.seals", double(runs.seals.value()), "count"},
        {"index.runs_scanned_per_query",
         ratio(double(runs.scans.value()), double(ix.queries.value())), "count"},
        {"retrieval.range_us_p50", us(ret.range_search_ns, 0.5), "us"},
        {"retrieval.filter_us_p50", us(ret.filter_ns, 0.5), "us"},
        {"retrieval.rank_us_p50", us(ret.rank_ns, 0.5), "us"},
        {"retrieval.candidates_per_query",
         ratio(double(ret.candidates.value()), double(ret.searches.value())), "count"},
        {"retrieval.filter_yield",
         ratio(double(ret.after_filter.value()), double(ret.candidates.value())), "ratio"},
        {"cluster.router.nodes_per_query",
         ratio(double(cm.fanout_nodes.value()), double(cm.queries.value())), "count"},
        {"cluster.router.merge_self_us_p50", e2e::percentile(search.self_us, 0.5), "us"},
        {"cluster.merge.duplicate_ratio", ratio(double(leg_dups), double(leg_rows)), "ratio"},
        {"cluster.replication.round_ms_p50", e2e::percentile(repl.busy_round_ms, 0.5), "ms"},
        {"cluster.replication.us_per_record", ratio(busy_ms * 1e3, double(repl.applied)), "us"},
        {"cluster.replication.lag_records_max", double(repl.lag_max), "count"},
        {"gen.lag_ms_p99", e2e::percentile(lateness_ms, 0.99), "ms"},
    };
    std::cout << "traced run: " << span_log.size() << " spans\n";
  }

  // --- correctness -----------------------------------------------------------
  replicate_to_quiescence(*cluster);
  std::vector<core::RepresentativeFov> acked = decode_all(in.preload);
  for (const ThreadResult& r : results) {
    const auto more = decode_all(r.acked_bytes);
    acked.insert(acked.end(), more.begin(), more.end());
  }
  std::vector<retrieval::Query> sample;
  {
    util::Xoshiro256 rng(opt.seed ^ 0x434845434BULL);
    const sim::CityModel city;
    for (std::size_t i = 0; i < kCheckQueries; ++i) {
      sample.push_back(
          i % 2 == 1 && spec.hot_share > 0.0
              ? e2e::make_query(in.hot_area, kHotHourStart - e2e::kHourMs,
                                kHotHourStart, rng)
              : e2e::make_query(city, e2e::kDayStart,
                                e2e::kDayStart + e2e::kDayMs - 2 * e2e::kHourMs,
                                rng));
    }
  }
  const int check_fails =
      check_outputs(*cluster, results, acked, sample, dir + "/check");
  cluster.reset();
  fs::remove_all(dir);

  // --- report ----------------------------------------------------------------
  std::vector<Metric> e2e_metrics = {
      {"setup_s", e2e::percentile(setup_s, 0.5), "s"},
      {"upload_ms_p50", e2e::percentile(upload_ms, 0.5), "ms"},
      {"upload_ms_p99", e2e::percentile(upload_ms, 0.99), "ms"},
      {"ingest_segments_per_s", double(acked_segments) / elapsed_s, "1/s"},
      {"ingest_cpu_us_per_segment", e2e::percentile(ingest_us_per_segment, 0.5), "us"},
      {"replica_ms_p50", e2e::percentile(replica_ms, 0.5), "ms"},
      {"replica_ms_p99", e2e::percentile(replica_ms, 0.99), "ms"},
      {"query_us_p50", e2e::percentile(query_us, 0.5), "us"},
      {"query_us_p99", e2e::percentile(query_us, 0.99), "us"},
      {"query_cpu_us_p50", e2e::percentile(query_cpu_us, 0.5), "us"},
      {"queries_per_s", double(queries_done) / elapsed_s, "1/s"},
      {"client_cpu_ms_per_video_min", e2e::percentile(client_ms_per_min, 0.5), "ms"},
      {"upload_bytes_per_video_min", ratio(double(bytes_sent), recorded_min), "B"},
      {"peak_rss_mb", peak_mb, "MB"},
  };

  std::cout << "timed phase: " << elapsed_s << " s, " << attempted
            << " operations attempted, " << failed << " failed\n";
  std::cout << "  set-up runs (s):";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";
  print_timing("upload_ms", upload_ms, "ms");
  print_timing("query_us", query_us, "us");
  print_timing("replica_ms", replica_ms, "ms");
  print_timing("generator_lateness_ms", lateness_ms, "ms");
  std::cout << "  replication: " << repl.rounds << " rounds, " << repl.applied
            << " records applied\n";
  std::cout << "  timed-phase CPU (s): process " << timed_cpu_s
            << ", upload delivery " << double(ingest_cpu_ns) / 1e9
            << ", queries " << double(query_cpu_ns) / 1e9 << ", replication "
            << double(replication_cpu_ns) / 1e9 << "\n";
  std::cout << "  peak_rss_mb window: "
            << (rss_window ? "timed phase" : "whole process (VmHWM reset refused)")
            << "\n";
  for (const auto* group : {&e2e_metrics, &layer}) {
    for (const Metric& m : *group) {
      std::cout << "  " << std::left << std::setw(38) << m.name << " "
                << std::setprecision(6) << m.value << " " << m.unit << "\n";
    }
  }

  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (check_fails == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto* group : {&e2e_metrics, &layer}) {
    for (const Metric& m : *group) {
      js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
      first = false;
    }
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return check_fails == 0 ? 0 : 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--data-dir") {
        opt.data_root = v;
      } else if (a == "--commit") {
        opt.commit = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.selftest || (!opt.workload.empty() && opt.seconds > 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--data-dir DIR] [--commit ID] | --selftest\n";
    return 1;
  }
  if (opt.selftest) {
    const int fails = e2e::selftest();
    std::cout << "selftest: " << (fails == 0 ? "ok" : "FAILED") << "\n";
    return fails == 0 ? 0 : 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (opt.workload == spec.name) return run_workload(spec, opt);
  }
  std::cerr << "unknown workload '" << opt.workload << "'\n";
  return 1;
}
