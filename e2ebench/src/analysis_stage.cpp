#include <cmath>
#include <set>

#include "analysis/autotool.h"
#include "analysis/chain_analyzer.h"
#include "analysis/defense_matrix.h"
#include "analysis/discovery.h"
#include "analysis/hidden_path.h"
#include "analysis/report.h"
#include "analysis/sweep_memo.h"
#include "apps/models.h"
#include "apps/races.h"
#include "apps/synthetic.h"
#include "bugtraq/corpus.h"
#include "bugtraq/stats.h"
#include "fssim/explore.h"
#include "stages.h"
#include "staticlint/linter.h"
#include "staticlint/registry.h"

namespace e2ebench {

namespace {

namespace analysis = dfsm::analysis;
namespace apps = dfsm::apps;
using bugtraq::Category;

/// Paper passes are summarised per window of this many passes.
constexpr std::size_t kPassWindow = 50;

/// Figure 1's pie labels, as the tier-1 stats test pins them.
int pinned_rounded_percent(Category c) {
  switch (c) {
    case Category::kInputValidationError: return 23;
    case Category::kBoundaryConditionError: return 21;
    case Category::kDesignError: return 18;
    case Category::kFailureToHandleExceptionalConditions: return 11;
    case Category::kAccessValidationError: return 10;
    case Category::kRaceConditionError: return 6;
    case Category::kConfigurationError: return 5;
    case Category::kOriginValidationError: return 3;
    case Category::kAtomicityError: return 2;
    case Category::kEnvironmentError: return 1;
    default: return 0;
  }
}

/// The lint result the tier-1 registry test pins: no errors or warnings,
/// one DR001 note on xterm's pFSM2 and one DR002 note on Rwall's pFSM2.
bool registry_lint_as_pinned(const dfsm::staticlint::LintRun& run) {
  using dfsm::staticlint::Severity;
  return run.errors() == 0 && run.warnings() == 0 && run.findings.size() == 2 &&
         run.findings[0].rule_id == "DR001" &&
         run.findings[0].severity == Severity::kNote &&
         run.findings[0].where.qualified() ==
             "xterm Log File Race Condition (Figure 5)/"
             "Write the log file of user Tom/pFSM2" &&
         run.findings[1].rule_id == "DR002" &&
         run.findings[1].severity == Severity::kNote &&
         run.findings[1].where.qualified() ==
             "Solaris Rwall Arbitrary File Corruption (Figure 6)/"
             "Rwall daemon writes messages/pFSM2";
}

/// A hidden-path witness is expected exactly on the pFSMs that are not
/// declared secure.
bool witnesses_as_expected(const dfsm::core::FsmModel& model,
                           const std::vector<analysis::HiddenPathReport>& reports) {
  std::set<std::string> open;
  for (const auto& op : model.chain().operations()) {
    for (const auto& p : op.pfsms()) {
      if (!p.declared_secure()) open.insert(p.name());
    }
  }
  bool any = false;
  for (const auto& r : reports) {
    if (r.vulnerable() != (open.count(r.pfsm_name) > 0)) return false;
    any = any || r.vulnerable();
  }
  return any;
}

/// One paper-reproduction pass; every output is checked.
void paper_pass(const AnalysisInputs& in, SpanRecorder& spans, Accounting& acct,
                std::uint64_t id) {
  bugtraq::Database db;
  {
    const SpanRecorder::Scope span(spans, "bugtraq.synthetic_corpus", id);
    db = bugtraq::synthetic_corpus(in.corpus_seed);
  }
  std::string figure1;
  std::vector<bugtraq::CategoryShare> shares;
  bugtraq::StudiedShare studied;
  {
    const SpanRecorder::Scope span(spans, "bugtraq.figure1", id);
    figure1 = bugtraq::render_figure1(db);
    shares = bugtraq::category_breakdown(db);
    studied = bugtraq::studied_share(db);
  }
  bool shares_ok = shares.size() == bugtraq::kCategoryCount && !figure1.empty();
  for (const auto& s : shares) {
    shares_ok = shares_ok && s.rounded_percent == pinned_rounded_percent(s.category);
  }
  acct.check(shares_ok, "Figure-1 shares differ from the pinned values");
  acct.check(studied.total == bugtraq::kBugtraqSize2002 &&
                 std::fabs(studied.percent - 22.0) < 0.05,
             "the studied share is not 22%");

  const auto models = apps::standard_models();
  {
    const SpanRecorder::Scope span(spans, "analysis.scan_model", id);
    const auto specs = analysis::all_specs();
    for (std::size_t i = 0; i < models.size(); ++i) {
      const auto reports = analysis::scan_model(models[i], specs[i].probe_domains);
      acct.check(witnesses_as_expected(models[i], reports),
                 "hidden-path witnesses differ for " + models[i].name());
    }
  }

  std::vector<analysis::LemmaReport> lemma;
  {
    const SpanRecorder::Scope span(spans, "analysis.sweep_all", id);
    lemma = analysis::sweep_all();
  }
  bool lemma_ok = lemma.size() == apps::all_case_studies().size();
  for (const auto& r : lemma) {
    lemma_ok = lemma_ok && r.baseline_exploited && r.all_checks_foil &&
               r.lemma2_holds && r.benign_preserved;
  }
  acct.check(lemma_ok, "a Lemma verdict differs");

  {
    const SpanRecorder::Scope span(spans, "analysis.render", id);
    const auto rendered = analysis::render_table1() + analysis::render_table2(models) +
                          analysis::render_figure2() + analysis::render_figure8(models) +
                          analysis::render_lemma(lemma);
    acct.check(!rendered.empty(), "rendering produced nothing");
  }

  {
    const SpanRecorder::Scope span(spans, "analysis.probe_nullhttpd_v051", id);
    const auto report = analysis::probe_nullhttpd_v051();
    acct.check(report.found_new_vulnerability, "discovery missed #6255");
  }

  {
    const SpanRecorder::Scope span(spans, "staticlint.lint_registry", id);
    const auto run = dfsm::staticlint::lint(dfsm::staticlint::curated_lint_models());
    acct.check(registry_lint_as_pinned(run), "registry lint differs from the pinned result");
  }

  const auto scenarios = apps::race_scenarios();
  {
    const SpanRecorder::Scope span(spans, "fssim.explore_scenario", id);
    for (const auto& scenario : scenarios) {
      if (scenario.name != "xterm-figure5" && scenario.name != "rwall-figure6") continue;
      const auto report = dfsm::fssim::explore_scenario(scenario);
      acct.check(report.exhaustive && report.explored == scenario.expected_total &&
                     report.violating == scenario.expected_violating,
                 "race exploration of " + scenario.name + " differs");
    }
  }
}

/// The expected evaluate() verdict for one input set of the synthetic
/// chain: every value passes the implementation (x <= 100) and at least
/// one takes the hidden path (x < 0).
bool expected_exploited(const std::int64_t* x, std::size_t k) {
  bool hidden = false;
  for (std::size_t i = 0; i < k; ++i) {
    if (x[i] > 100) return false;
    hidden = hidden || x[i] < 0;
  }
  return hidden;
}

/// One what-if session: a memoized sweep, two rankings sharing one memo
/// store, and a batch evaluation of concrete inputs, per study.
AnalysisStage::Session whatif_session(const AnalysisInputs& in, SpanRecorder& spans,
                                      Accounting& acct, std::uint64_t id) {
  AnalysisStage::Session out;
  for (const auto& w : in.whatif) {
    apps::SyntheticStudyConfig config;
    config.operations = w.operations;
    config.checks_per_operation = w.checks_per_operation;
    const auto study = apps::make_synthetic_wide_study(config);
    const std::size_t k = w.operations * w.checks_per_operation;

    auto t0 = now_ns();
    analysis::LemmaReport report;
    {
      const SpanRecorder::Scope span(spans, "analysis.sweep_wide", id);
      report = analysis::sweep(*study);
    }
    out.sweep_s += seconds_since(t0);
    acct.check(report.total_masks == (std::uint64_t{1} << k) &&
                   report.baseline_exploited && report.all_checks_foil &&
                   report.lemma2_holds && report.benign_preserved,
               "synthetic sweep verdicts differ");
    out.evaluations += report.exploit_evaluations + report.benign_evaluations;
    out.masks += report.total_masks;

    analysis::SweepMemoStore store;
    std::vector<analysis::PatchRanking> rankings;
    t0 = now_ns();
    for (int r = 0; r < 2; ++r) {
      const SpanRecorder::Scope span(spans, "analysis.rank_patch_candidates", id);
      rankings.push_back(analysis::rank_patch_candidates(
          *study, analysis::RankStrategy::kIncremental, &store));
    }
    out.rank_s += seconds_since(t0);
    for (const auto& ranking : rankings) {
      bool forecloses = ranking.candidates.size() == w.operations;
      for (const auto& c : ranking.candidates) forecloses = forecloses && c.forecloses;
      acct.check(forecloses, "a single-operation patch does not foreclose (Lemma 2)");
      out.memo_hits += ranking.memo_hits;
      out.memo_lookups += ranking.memo_hits + ranking.memo_misses;
    }

    const auto model = study->model();
    t0 = now_ns();
    std::vector<dfsm::core::ChainResult> results;
    {
      const SpanRecorder::Scope span(spans, "core.evaluate_batch", id);
      results = model.chain().evaluate_batch(w.batch);
    }
    out.evaluate_s += seconds_since(t0);
    bool verdicts = results.size() == w.batch.size();
    for (std::size_t i = 0; verdicts && i < results.size(); ++i) {
      verdicts = results[i].exploited() == expected_exploited(&w.batch_x[i * k], k);
    }
    acct.check(verdicts, "evaluate_batch verdicts differ from the chain semantics");
  }
  return out;
}

}  // namespace

AnalysisStage::AnalysisStage(const AnalysisInputs& in, StageRun& run)
    : in_(in), run_(run) {}

void AnalysisStage::pass(std::size_t index) {
  const auto t0 = now_ns();
  {
    const SpanRecorder::Scope span(*run_.spans, "bench.paper_pass", index);
    paper_pass(in_, *run_.spans, *run_.acct, index);
  }
  run_.sample(pass_ms_, seconds_since(t0) * 1e3);
}

void AnalysisStage::session(std::size_t index) {
  const bool traced = run_.spans->enabled();
  const auto t0 = now_ns();
  Session s;
  {
    const SpanRecorder::Scope span(*run_.spans, "bench.whatif_session", index);
    s = whatif_session(in_, *run_.spans, *run_.acct, index);
  }
  run_.sample(session_s_, seconds_since(t0));
  if (traced) traced_sessions_.push_back(s);
}

void AnalysisStage::finish() {
  if (!run_.trace) {
    run_.set("repro_p50_ms", windowed_percentile(pass_ms_, kPassWindow, 50));
    run_.set("repro_p90_ms", windowed_percentile(pass_ms_, kPassWindow, 90));
    run_.set("whatif_s", median(session_s_));
    return;
  }

  const auto& all = run_.spans->spans();
  const auto ms = [&all](const char* name) {
    return median(durations_s(all, name)) * 1e3;
  };
  run_.set("bugtraq.figure1_ms", ms("bugtraq.figure1"));
  run_.set("analysis.hidden_path_scan_ms", ms("analysis.scan_model"));
  run_.set("analysis.sweep_all_ms", ms("analysis.sweep_all"));
  run_.set("analysis.discovery_ms", ms("analysis.probe_nullhttpd_v051"));
  run_.set("analysis.render_ms", ms("analysis.render"));
  run_.set("staticlint.registry_lint_ms", ms("staticlint.lint_registry"));
  run_.set("fssim.explore_ms", ms("fssim.explore_scenario"));
  run_.set("staticlint.findings",
           static_cast<double>(
               dfsm::staticlint::lint(dfsm::staticlint::curated_lint_models()).findings.size()));

  // Per-session sums over the studies, from the traced sessions.
  std::vector<double> sweep_s, rank_ms, evaluate_s;
  for (const auto& s : traced_sessions_) {
    sweep_s.push_back(s.sweep_s);
    rank_ms.push_back(s.rank_s * 1e3);
    evaluate_s.push_back(s.evaluate_s);
  }
  const auto& last = traced_sessions_.back();
  run_.set("analysis.sweep_wide_s", median(sweep_s));
  run_.set("analysis.rank_patch_ms", median(rank_ms));
  run_.set("analysis.memo_hit_ratio",
           static_cast<double>(last.memo_hits) / static_cast<double>(last.memo_lookups));
  run_.set("analysis.memo_lookups", static_cast<double>(last.memo_lookups));
  run_.set("analysis.evaluations_per_mask",
           static_cast<double>(last.evaluations) / static_cast<double>(last.masks));
  run_.set("analysis.total_masks", static_cast<double>(last.masks));
  run_.set("core.evaluate_batch_ms", median(evaluate_s) * 1e3);

  // One more session on the parallel pool, for the fan-out speed-ups.
  const auto parallel = [this] {
    const ParallelPool pool(run_.threads);
    return whatif_session(in_, *run_.spans, *run_.acct, 0);
  }();
  run_.set("runtime.speedup_4t.sweep_wide", median(sweep_s) / parallel.sweep_s);
  run_.set("runtime.speedup_4t.evaluate_batch", median(evaluate_s) / parallel.evaluate_s);
}

}  // namespace e2ebench
