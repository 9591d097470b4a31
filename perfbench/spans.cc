#include "spans.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name, int64_t query_id) {
  return Start(name, query_id, /*nested=*/true);
}

int SpanRecorder::BeginRoot(const char* name, int64_t query_id) {
  return Start(name, query_id, /*nested=*/false);
}

int SpanRecorder::Start(const char* name, int64_t query_id, bool nested) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = nested && !open_.empty() ? open_.back() : -1;
  span.query_id = query_id;
  span.nested = nested;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  if (nested) open_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  Span& span = spans_[static_cast<size_t>(id)];
  if (span.nested) {
    LPCE_CHECK_MSG(!open_.empty() && open_.back() == id,
                   "nested spans must end in reverse order of their start");
    open_.pop_back();
  }
  span.end_ns = now;
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += span.duration_ns();
  }
}

std::map<std::string, SpanSummary> SpanRecorder::Summarize() const {
  std::map<std::string, SpanSummary> out;
  for (const Span& span : spans_) {
    SpanSummary& summary = out[span.name];
    ++summary.count;
    summary.total_us += static_cast<double>(span.duration_ns()) * 1e-3;
    summary.self_us += static_cast<double>(span.self_ns()) * 1e-3;
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"query\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.parent,
                 static_cast<long long>(s.query_id),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.self_ns()));
  }
  std::fprintf(f, "],\n\"summary\":{");
  bool first = true;
  for (const auto& [name, summary] : Summarize()) {
    std::fprintf(f,
                 "%s\n\"%s\":{\"count\":%lld,\"total_us\":%.3f,\"self_us\":%.3f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(summary.count), summary.total_us,
                 summary.self_us);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
