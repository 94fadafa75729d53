// stats.h — what every stage shares: order statistics, the metric sink,
// operation accounting and the run's knobs.
#ifndef DFSM_E2EBENCH_STATS_H
#define DFSM_E2EBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "spans.h"

namespace e2ebench {

/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// The q-th percentile of each consecutive full window of `window`
/// samples, then the median across windows: one burst of noise moves one
/// window, not the result. With fewer than two full windows, the plain
/// percentile of all samples.
[[nodiscard]] double windowed_percentile(const std::vector<double>& samples,
                                         std::size_t window, double q);

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Operations attempted and failed, with the first few failure messages.
/// A failed output check is a failed operation.
class Accounting {
 public:
  /// Counts one operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first 20 only
};

/// The sizes one stage runs at. A workload runs its own stage at the
/// full size and the other two at the companion size (see README.md).
struct CorpusSize {
  std::size_t records = 0;         ///< corpus written, reloaded and queried
  std::size_t ingest_records = 0;  ///< second corpus ingested in batches
  std::size_t queries = 0;         ///< count(pred) queries per cycle
};
struct TrafficSize {
  std::uint64_t requests = 0;  ///< one run_load call
  std::size_t slice = 0;       ///< serve_request replays per iteration
};
struct AnalysisSize {
  std::size_t min_passes = 0;        ///< paper-reproduction passes
  std::vector<std::size_t> whatif_k;  ///< check counts of each what-if study
};

/// What a stage is given, and where it leaves its results.
struct StageRun {
  /// Pool size of run_load and the speed-up reruns; every other call runs
  /// on a serial pool (see README.md).
  std::size_t threads = 4;
  bool trace = false;       ///< the traced run: per-layer metrics
  std::string workdir;      ///< scratch directory for corpus files
  SpanRecorder* spans = nullptr;
  Accounting* acct = nullptr;
  std::map<std::string, double>* metrics = nullptr;
  bool warm_up = false;  ///< set by run_loops during a loop's first iteration

  void set(const std::string& name, double value) { (*metrics)[name] = value; }
  /// Keeps a timing sample, unless it comes from a warm-up iteration.
  void sample(std::vector<double>& samples, double value) const {
    if (!warm_up) samples.push_back(value);
  }
};

/// Gives the global pool `threads` workers for its lifetime, then makes
/// it serial again, the setting the benchmark runs at otherwise. Swapping
/// the pool joins and spawns threads, so a guard is never opened inside a
/// timed region.
class ParallelPool {
 public:
  explicit ParallelPool(std::size_t threads) {
    dfsm::runtime::ThreadPool::set_global_threads(threads);
  }
  ~ParallelPool() { dfsm::runtime::ThreadPool::set_global_threads(1); }
  ParallelPool(const ParallelPool&) = delete;
  ParallelPool& operator=(const ParallelPool&) = delete;
};

/// One measured loop: run_loops calls step(i) for i = 0, 1, ...
struct Loop {
  double budget_s = 0;  ///< wall time its iterations may take
  std::size_t min_iterations = 1;  ///< measured ones, warm-up not counted
  std::function<void(std::size_t index)> step;
};

/// Walls of one loop's iterations in the traced run, warm-up excluded.
struct LoopWalls {
  std::vector<double> traced;
  std::vector<double> untraced;
};

/// Runs the loops interleaved, each until its iterations have taken its
/// budget and it has run its minimum. Each step runs one iteration of the
/// unfinished loop that has used the smallest share of its budget, so
/// every loop's samples spread over the whole run: on the virtual machine
/// the benchmark was tuned on, the speed of a serial loop drifted by up to
/// 2x within seconds, and a loop measured in one stretch of a few seconds
/// followed that drift. A loop's first iteration is a warm-up: its outputs
/// are checked, its timing samples dropped (a first 10^6-record corpus
/// cycle ran up to 25% slower than later ones). In the traced run the
/// iterations after it alternate traced and untraced, and at least three
/// run. Returns each loop's walls (traced run only).
std::vector<LoopWalls> run_loops(const std::vector<Loop>& loops, StageRun& run);

}  // namespace e2ebench

#endif  // DFSM_E2EBENCH_STATS_H
