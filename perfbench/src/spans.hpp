// In-memory spans recorded by the benchmark around its calls into each layer.
//
// A span has a name, a start, an end and the span that was open on the same
// thread when it began (its parent). Spans stay in memory while the run is
// measured and are written out once, when it ends. A span's self time is its
// duration minus the part of it that its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< static string: a layer boundary name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index into the same span list, -1 = root
};

/// Per-name aggregate over a span list.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

/// Self time of every span (seconds): its duration minus the union of its
/// children's intervals clipped to it.
std::vector<double> self_times(const std::vector<Span>& spans);

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

/// The totals recorded under `name`, or zeros when there are none.
SpanTotals totals_of(const std::map<std::string, SpanTotals>& totals,
                     const std::string& name);

/// Records spans; safe to use from several threads (each thread has its own
/// stack of open spans, so parents never cross threads).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int begin(const char* name);
  void end(int id);

  std::vector<Span> spans() const;
  std::map<std::string, SpanTotals> totals() const {
    return span_totals(spans());
  }

  /// Writes {"spans": [{"name", "start_ns", "end_ns", "parent"}, ...]}.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Host seconds on the monotonic clock (for unit timing outside spans).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
