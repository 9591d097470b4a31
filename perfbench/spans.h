// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer: a name, start and end on the
// steady clock, the span that was open when it began (its parent), and the
// id of the query it belongs to. Spans stay in memory and are written as one
// JSON document when the run ends. Self time is a span's duration minus the
// time its children cover.
//
// Single-threaded by design: every span is recorded on the benchmark's
// generator thread, around the public calls it makes into the engine, so no
// synchronization is needed and recording never perturbs the server's
// worker threads.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        // index into spans(), -1 for a root span
  int64_t query_id = -1;  // -1 for spans outside any query
  int64_t child_ns = 0;   // time covered by direct children
  bool nested = true;     // false for BeginRoot spans

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

/// Per-name totals over every recorded span of that name.
struct SpanSummary {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class SpanRecorder {
 public:
  /// Starts a nested span (no-op returning -1 while disabled). The parent
  /// is the innermost nested span still open; nested spans end in reverse
  /// order of their start.
  int Begin(const char* name, int64_t query_id);
  /// Starts a root span that may overlap others (a query in flight on the
  /// server while the generator submits the next one).
  int BeginRoot(const char* name, int64_t query_id);
  /// Ends a span returned by Begin or BeginRoot (ignores -1).
  void End(int id);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name duration and self-time totals.
  std::map<std::string, SpanSummary> Summarize() const;
  /// Writes every span plus the per-name summary as JSON; false on I/O
  /// error.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int Start(const char* name, int64_t query_id, bool nested);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Begin/End pair tied to a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t query_id)
      : recorder_(recorder), id_(recorder->Begin(name, query_id)) {}
  ~ScopedSpan() { recorder_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
