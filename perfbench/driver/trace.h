// In-memory span recorder for the traced replays. Spans are taken by the
// benchmark's own code around calls into the library's public functions;
// nothing inside the library is instrumented. A disabled tracer records
// nothing, so the untraced replay runs the same code path.
#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t run = 0;  ///< the user run (or tick) the span belongs to
    uint16_t name = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Interns a span name; call before the timed loop.
  uint16_t Name(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<uint16_t>(i);
    }
    names_.push_back(name);
    return static_cast<uint16_t>(names_.size() - 1);
  }

  void Reserve(size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, uint16_t name, uint32_t run) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int32_t>(tracer_.spans_.size());
      Span& span = tracer_.spans_.emplace_back();
      span.name = name;
      span.run = run;
      span.parent = tracer_.open_;
      tracer_.open_ = index_;
      span.start_ns = NowNs();
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_.spans_[static_cast<size_t>(index_)];
      span.end_ns = NowNs();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t index_ = -1;
  };

  /// Self time summed per span name, in ns.
  std::map<std::string, uint64_t> SelfTimeByName() const {
    std::vector<SpanInterval> intervals(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      intervals[i] = {spans_[i].start_ns, spans_[i].end_ns,
                      spans_[i].parent};
    }
    const std::vector<uint64_t> self = SelfTimes(intervals);
    std::map<std::string, uint64_t> out;
    for (const std::string& name : names_) out[name] = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[names_[spans_[i].name]] += self[i];
    }
    return out;
  }

  /// Whole duration summed per span name, in ns.
  std::map<std::string, uint64_t> TotalTimeByName() const {
    std::map<std::string, uint64_t> out;
    for (const std::string& name : names_) out[name] = 0;
    for (const Span& span : spans_) {
      out[names_[span.name]] += span.end_ns - span.start_ns;
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
