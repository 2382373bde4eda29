// In-memory span recorder for the traced run. A span has a name, start,
// end, parent span and operation id; the log is written out as JSON lines
// when the run ends. Untraced passes pass a null log and only time.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(SteadyClock::time_point from,
                                            SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  int parent = -1;  // index into SpanLog::spans(), -1 for a root
  std::uint64_t op = 0;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
};

class SpanLog {
 public:
  /// Run `fn` inside a span named `name`; returns its duration in seconds.
  /// Spans opened inside `fn` become its children.
  template <typename Fn>
  double time(std::string name, std::uint64_t op, Fn&& fn) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), current_, op, {}, {}});
    const int parent = current_;
    current_ = index;
    const auto start = SteadyClock::now();
    fn();
    const auto end = SteadyClock::now();
    current_ = parent;
    spans_[static_cast<std::size_t>(index)].start = start;
    spans_[static_cast<std::size_t>(index)].end = end;
    return seconds_between(start, end);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Wall time inside span `index` not covered by any of its children.
  [[nodiscard]] double self_seconds(std::size_t index) const;

  /// One JSON object per line, times in seconds since `epoch`, each tagged
  /// with `round`.
  [[nodiscard]] std::string to_jsonl(SteadyClock::time_point epoch,
                                     int round) const;

 private:
  int current_ = -1;
  std::vector<Span> spans_;
};

/// Time `fn`, inside a span when `spans` is non-null; returns seconds.
template <typename Fn>
double timed(SpanLog* spans, const char* name, std::uint64_t op, Fn&& fn) {
  if (spans != nullptr) return spans->time(name, op, std::forward<Fn>(fn));
  const auto start = SteadyClock::now();
  fn();
  return seconds_between(start, SteadyClock::now());
}

}  // namespace perfbench
