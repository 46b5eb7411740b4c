#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <unordered_map>

#include "stats.hpp"

namespace e2e {

namespace {

std::atomic<SpanLog*> g_log{nullptr};
std::atomic<std::uint64_t> g_next_thread{1};

struct ThreadState {
  std::uint64_t thread = g_next_thread.fetch_add(1);
  std::uint64_t next = 0;
  std::uint64_t open = 0;     ///< innermost open span on this thread
  std::uint64_t request = 0;  ///< request the open span belongs to
  std::vector<SpanRecord>* buffer = nullptr;
  SpanLog* buffer_owner = nullptr;
};

thread_local ThreadState t_state;

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_span_log(SpanLog* log) noexcept { g_log.store(log); }

std::vector<SpanRecord>& SpanLog::local() {
  if (t_state.buffer_owner != this) {
    std::lock_guard lk(mu_);
    buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
    buffers_.back()->reserve(1 << 16);
    t_state.buffer = buffers_.back().get();
    t_state.buffer_owner = this;
  }
  return *t_state.buffer;
}

std::size_t SpanLog::size() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->size();
  return n;
}

std::map<std::string, SpanSummary> SpanLog::summarize() const {
  std::lock_guard lk(mu_);
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& b : buffers_) {
    for (const SpanRecord& r : *b) {
      if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
    }
  }
  std::map<std::string, SpanSummary> out;
  for (const auto& b : buffers_) {
    for (const SpanRecord& r : *b) {
      SpanSummary& s = out[r.name];
      s.total_us.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
      const auto it = children.find(r.id);
      const std::uint64_t self =
          it == children.end()
              ? r.end_ns - r.start_ns
              : self_time({r.start_ns, r.end_ns}, it->second);
      s.self_us.push_back(static_cast<double>(self) / 1e3);
    }
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) noexcept
    : log_(g_log.load(std::memory_order_relaxed)) {
  if (log_ == nullptr) return;
  ThreadState& t = t_state;
  rec_.name = name;
  rec_.id = (t.thread << 40) | ++t.next;
  rec_.parent = t.open;
  rec_.request = t.open == 0 ? rec_.id : t.request;
  saved_parent_ = t.open;
  saved_request_ = t.request;
  t.open = rec_.id;
  t.request = rec_.request;
  rec_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  rec_.end_ns = now_ns();
  t_state.open = saved_parent_;
  t_state.request = saved_request_;
  log_->local().push_back(rec_);
}

}  // namespace e2e
