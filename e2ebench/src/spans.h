// spans.h — the benchmark's span recorder.
//
// A span is one timed call into a dfsm layer, made from the benchmark's
// own files: name, start, end, the span that was open when it began
// (its parent) and the iteration or request it belongs to. Spans stay in
// memory and are written out once, when the run ends. Recording happens
// on the driving thread only; a disabled recorder makes every scope a
// no-op, so the same code path serves the untraced and the traced run.
#ifndef DFSM_E2EBENCH_SPANS_H
#define DFSM_E2EBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< "<module>.<call>"; string literals only
  std::uint64_t id = 0;   ///< iteration or request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;  ///< null when recording is off
    std::int32_t index_ = -1;
    std::int32_t saved_open_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as CSV: index,name,id,start_ns,end_ns,parent,self_ns.
  /// Throws std::runtime_error if the file cannot be written.
  void write_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  ///< innermost open span
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Durations in seconds of every span named `name`, in recording order.
[[nodiscard]] std::vector<double> durations_s(const std::vector<Span>& spans,
                                              const std::string& name);

/// Total self time in seconds per span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans);

}  // namespace e2ebench

#endif  // DFSM_E2EBENCH_SPANS_H
