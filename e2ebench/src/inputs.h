// inputs.h — everything a run measures is generated here, from the seed,
// during set-up. The digest covers every generated input, so two runs
// can show they measured the same inputs.
#ifndef DFSM_E2EBENCH_INPUTS_H
#define DFSM_E2EBENCH_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bugtraq/database.h"
#include "core/value.h"
#include "loadgen/workload.h"
#include "stats.h"

namespace e2ebench {

namespace bugtraq = dfsm::bugtraq;
namespace loadgen = dfsm::loadgen;

/// One analyst query: a predicate over records. Kinds rotate in a fixed
/// order so every kind is exactly a fifth of the mix at any seed.
struct Query {
  enum class Kind { kCategory, kRemoteYear, kLocalClass, kSoftware, kCategoryYears };
  Kind kind = Kind::kCategory;
  bugtraq::Category category = bugtraq::Category::kUnknown;
  bugtraq::VulnClass vuln_class = bugtraq::VulnClass::kOther;
  int year_lo = 0;
  int year_hi = 0;
  std::string software;

  [[nodiscard]] bool matches(const bugtraq::VulnRecord& r) const;
  [[nodiscard]] std::string describe() const;
};

struct CorpusInputs {
  bugtraq::Database corpus;  ///< written, reloaded and compared against
  std::vector<std::vector<bugtraq::VulnRecord>> batches;  ///< to ingest
  std::vector<Query> queries;
  double generate_s = 0;  ///< set-up time spent in synthetic_corpus_n
};

/// One request of the serve_request slice, with its wire payload.
struct SliceRequest {
  loadgen::RequestSpec spec;
  std::string payload;
};

struct TrafficInputs {
  loadgen::WorkloadSpec workload;
  std::vector<SliceRequest> slice;
};

/// One what-if study: the synthetic wide chain's shape and a batch of
/// concrete inputs (one object per pFSM) for ExploitChain::evaluate_batch.
struct WhatIfStudy {
  std::size_t operations = 0;
  std::size_t checks_per_operation = 0;
  std::vector<std::vector<std::vector<dfsm::core::Object>>> batch;
  std::vector<std::int64_t> batch_x;  ///< the x values, in batch order
};

struct AnalysisInputs {
  std::uint64_t corpus_seed = 0;  ///< seed of the 5,925-record corpus
  std::vector<WhatIfStudy> whatif;
};

inline constexpr std::size_t kIngestBatch = 500;
inline constexpr std::size_t kEvaluateBatch = 4096;

[[nodiscard]] CorpusInputs make_corpus_inputs(const CorpusSize& size,
                                              std::uint64_t seed);
[[nodiscard]] TrafficInputs make_traffic_inputs(const TrafficSize& size,
                                                std::uint64_t seed);
[[nodiscard]] AnalysisInputs make_analysis_inputs(const AnalysisSize& size,
                                                  std::uint64_t seed);

/// FNV-1a digests over every generated input of a stage.
[[nodiscard]] std::uint64_t digest(const CorpusInputs& in);
[[nodiscard]] std::uint64_t digest(const TrafficInputs& in);
[[nodiscard]] std::uint64_t digest(const AnalysisInputs& in);

}  // namespace e2ebench

#endif  // DFSM_E2EBENCH_INPUTS_H
