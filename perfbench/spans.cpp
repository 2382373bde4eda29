#include "spans.hpp"

#include <cstdio>

namespace perfbench {

double SpanLog::self_seconds(std::size_t index) const {
  const Span& span = spans_[index];
  double covered = 0.0;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(index))
      covered += seconds_between(child.start, child.end);
  }
  return seconds_between(span.start, span.end) - covered;
}

std::string SpanLog::to_jsonl(SteadyClock::time_point epoch,
                              int round) const {
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"round\": %d, \"id\": %zu, \"parent\": %d, \"op\": %llu, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  round, i, span.parent,
                  static_cast<unsigned long long>(span.op), span.name.c_str(),
                  seconds_between(epoch, span.start),
                  seconds_between(epoch, span.end));
    out += line;
  }
  return out;
}

}  // namespace perfbench
