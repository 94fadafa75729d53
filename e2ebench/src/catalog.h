// catalog.h — every metric the benchmark prints, with its unit. The
// untraced run prints exactly the end-to-end list, the traced run
// exactly the per-layer list; the tests check a run's printout against
// BENCHMARK.json.
#ifndef DFSM_E2EBENCH_CATALOG_H
#define DFSM_E2EBENCH_CATALOG_H

#include <string>
#include <vector>

namespace e2ebench {

struct MetricInfo {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

}  // namespace e2ebench

#endif  // DFSM_E2EBENCH_CATALOG_H
