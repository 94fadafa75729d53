// stages.h — the three measured stages. Each drives the public functions
// of its dfsm layers from here, checks every output into run.acct, and
// in finish() leaves its metrics in run.metrics: the end-to-end ones in
// the untraced run, the per-layer ones (from spans around each layer
// call) in the traced run. run_loops calls their iteration functions,
// interleaved across the stages.
#ifndef DFSM_E2EBENCH_STAGES_H
#define DFSM_E2EBENCH_STAGES_H

#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "loadgen/engine.h"
#include "stats.h"

namespace e2ebench {

/// Corpus lifecycle: write CSV and colsnap shards, reload each and
/// compute the Figure-1 statistics, ingest a second corpus in batches
/// beside a snapshot reader, then answer count() queries.
class CorpusStage {
 public:
  CorpusStage(const CorpusInputs& in, StageRun& run);
  ~CorpusStage();  ///< removes the shard files
  CorpusStage(const CorpusStage&) = delete;
  CorpusStage& operator=(const CorpusStage&) = delete;

  void cycle(std::size_t index);
  void finish();

 private:
  const CorpusInputs& in_;
  StageRun& run_;
  std::string reference_;  ///< statistics of the generated corpus
  std::vector<std::size_t> reference_counts_;  ///< query answers
  std::size_t ingest_records_ = 0;
  std::vector<std::string> csv_paths_;
  std::vector<std::string> colsnap_paths_;

  std::vector<double> save_s_, load_csv_s_, load_colsnap_s_, ingest_rps_, query_ms_;
  std::vector<double> epochs_, acquires_;
  std::uintmax_t csv_bytes_ = 0;
  std::uintmax_t colsnap_bytes_ = 0;
};

/// Monitored traffic: one run_load call plus a serve_request replay of a
/// slice of the same stream per iteration.
class TrafficStage {
 public:
  TrafficStage(const TrafficInputs& in, StageRun& run);

  void iteration(std::size_t index);
  void finish();

 private:
  const TrafficInputs& in_;
  StageRun& run_;
  loadgen::EngineOptions monitored_;
  loadgen::EngineOptions unmonitored_;
  loadgen::LoadReport last_;
  std::uint64_t violations_ = 0;
  std::uint64_t request_id_ = 0;
  std::vector<double> load_s_, slice_us_, spec_ns_, parse_us_, decode_ns_;
};

/// Model analysis: paper-reproduction passes and what-if sessions on
/// synthetic wide chains.
class AnalysisStage {
 public:
  AnalysisStage(const AnalysisInputs& in, StageRun& run);

  void pass(std::size_t index);
  void session(std::size_t index);
  void finish();

  /// What one what-if session measured.
  struct Session {
    double sweep_s = 0;
    double rank_s = 0;
    double evaluate_s = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t masks = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_lookups = 0;
  };

 private:
  const AnalysisInputs& in_;
  StageRun& run_;
  std::vector<double> pass_ms_, session_s_;
  std::vector<Session> traced_sessions_;
};

}  // namespace e2ebench

#endif  // DFSM_E2EBENCH_STAGES_H
