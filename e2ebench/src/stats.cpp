#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double windowed_percentile(const std::vector<double>& samples,
                           std::size_t window, double q) {
  if (samples.size() < 2 * window) return percentile(samples, q);
  std::vector<double> per_window;
  for (std::size_t b = 0; b + window <= samples.size(); b += window) {
    per_window.push_back(percentile(
        {samples.begin() + static_cast<long>(b),
         samples.begin() + static_cast<long>(b + window)},
        q));
  }
  return median(per_window);
}

void Accounting::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

std::vector<LoopWalls> run_loops(const std::vector<Loop>& loops, StageRun& run) {
  struct State {
    std::size_t done = 0;
    double used_s = 0;
    LoopWalls walls;
  };
  std::vector<State> state(loops.size());
  const auto unfinished = [&](std::size_t k) {
    const std::size_t minimum =
        std::max<std::size_t>(loops[k].min_iterations + 1, run.trace ? 3 : 2);
    return state[k].done < minimum || state[k].used_s < loops[k].budget_s;
  };
  for (;;) {
    std::size_t next = loops.size();
    for (std::size_t k = 0; k < loops.size(); ++k) {
      if (unfinished(k) &&
          (next == loops.size() || state[k].used_s / loops[k].budget_s <
                                       state[next].used_s / loops[next].budget_s)) {
        next = k;
      }
    }
    if (next == loops.size()) break;
    State& s = state[next];
    const std::size_t i = s.done++;
    const bool traced = run.trace && i % 2 == 1;
    run.warm_up = i == 0;
    run.spans->set_enabled(traced);
    const auto t0 = now_ns();
    loops[next].step(i);
    const double wall = seconds_since(t0);
    run.spans->set_enabled(false);
    s.used_s += wall;
    if (run.trace && i > 0) (traced ? s.walls.traced : s.walls.untraced).push_back(wall);
  }
  run.warm_up = false;
  std::vector<LoopWalls> walls;
  for (auto& s : state) walls.push_back(std::move(s.walls));
  return walls;
}

}  // namespace e2ebench
