#pragma once
// The benchmark's own span recorder for the traced run. Spans are taken
// around calls into the system's public functions (never inside src/):
// name, start, end, parent span and the id of the request they serve.
// Each thread appends to its own buffer, so recording takes no lock;
// buffers are read only after every recording thread has been joined.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] std::uint64_t now_ns() noexcept;

struct SpanRecord {
  const char* name = nullptr;  ///< static string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< id of the root span of this request
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name durations and self times (µs), computed from the records.
struct SpanSummary {
  std::vector<double> total_us;
  std::vector<double> self_us;
};

class SpanLog {
 public:
  /// Summaries of every recorded span, keyed by name. Call only after the
  /// recording threads have been joined.
  [[nodiscard]] std::map<std::string, SpanSummary> summarize() const;
  [[nodiscard]] std::size_t size() const;

  /// The calling thread's buffer (registered on first use).
  [[nodiscard]] std::vector<SpanRecord>& local();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// The log spans go to; null (the default) disables recording, and a
/// ScopedSpan then reads no clock.
void set_span_log(SpanLog* log) noexcept;

/// RAII span: opens on construction (a child of the innermost open span
/// on this thread), records on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

}  // namespace e2e
