// dfsm_e2e — the end-to-end benchmark program. See ../README.md.
//
//   dfsm_e2e --workload W --seed N --seconds S --trace 0|1
//            [--workdir DIR] [--trace-out FILE]
//
// Prints informational lines starting with '#', then, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog.h"
#include "inputs.h"
#include "runtime/thread_pool.h"
#include "stages.h"

namespace e2ebench {
namespace {

/// A workload runs its own stage at the full size and the other two at
/// the companion size. Its own stage gets 55% of the time budget and
/// each companion 22.5%; run_loops interleaves them.
enum class Stage { kCorpus, kTraffic, kAnalysis };

struct Workload {
  Stage own = Stage::kCorpus;
  CorpusSize corpus;
  TrafficSize traffic;
  AnalysisSize analysis;
};

constexpr double kOwnShare = 0.55;
constexpr double kCompanionShare = 0.225;
const CorpusSize kCorpusFull{1'000'000, 1'000'000, 60};
const CorpusSize kCorpusCompanion{100'000, 100'000, 120};
const TrafficSize kTrafficFull{1'000'000, 40'000};
const TrafficSize kTrafficCompanion{200'000, 10'000};
const AnalysisSize kAnalysisFull{100, {18, 19, 20}};
const AnalysisSize kAnalysisCompanion{5, {12, 13, 14}};

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "corpus_lifecycle") {
    return Workload{Stage::kCorpus, kCorpusFull, kTrafficCompanion,
                    kAnalysisCompanion};
  }
  if (name == "monitored_traffic") {
    return Workload{Stage::kTraffic, kCorpusCompanion, kTrafficFull,
                    kAnalysisCompanion};
  }
  if (name == "model_analysis") {
    return Workload{Stage::kAnalysis, kCorpusCompanion, kTrafficCompanion,
                    kAnalysisFull};
  }
  return std::nullopt;
}

constexpr int kSetupRepetitions = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string workdir = ".bench_build/e2ebench-work";
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = o.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.workload.empty()) {
    throw std::invalid_argument(
        "usage: dfsm_e2e --workload W --seed N --seconds S --trace 0|1");
  }
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("a metric is not a finite number");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int run(const Options& o) {
  const auto workload = find_workload(o.workload);
  if (!workload) throw std::invalid_argument("unknown workload " + o.workload);

  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  dfsm::runtime::ThreadPool::set_global_threads(1);

  // Set-up: each stage generates its inputs from the seed several
  // times; the median is its set-up time and the last copy is measured.
  double setup_s = 0;
  const auto set_up = [&setup_s](auto make) {
    std::vector<double> samples;
    std::optional<decltype(make())> inputs;
    for (int r = 0; r < kSetupRepetitions; ++r) {
      inputs.reset();
      const auto t0 = now_ns();
      inputs.emplace(make());
      samples.push_back(seconds_since(t0));
    }
    setup_s += median(samples);
    return std::move(*inputs);
  };
  const auto corpus_in = set_up([&] { return make_corpus_inputs(workload->corpus, o.seed); });
  const auto traffic_in = set_up([&] { return make_traffic_inputs(workload->traffic, o.seed); });
  const auto analysis_in =
      set_up([&] { return make_analysis_inputs(workload->analysis, o.seed); });
  std::cout << "# inputs {\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
            << ", \"digest\": {\"corpus\": \"" << hex(digest(corpus_in))
            << "\", \"traffic\": \"" << hex(digest(traffic_in)) << "\", \"analysis\": \""
            << hex(digest(analysis_in)) << "\"}, \"run_load_threads\": " << threads << "}\n";

  SpanRecorder spans;
  Accounting acct;
  std::map<std::string, double> metrics;
  StageRun stage;
  stage.threads = threads;
  stage.trace = o.trace;
  stage.workdir = o.workdir;
  stage.spans = &spans;
  stage.acct = &acct;
  stage.metrics = &metrics;

  CorpusStage corpus(corpus_in, stage);
  TrafficStage traffic(traffic_in, stage);
  AnalysisStage analysis(analysis_in, stage);
  const auto share = [&](Stage s) {
    return s == workload->own ? kOwnShare : kCompanionShare;
  };
  // The analysis stage gives a third of its share to paper passes (about
  // 7 ms each, so hundreds of samples) and two thirds to what-if sessions
  // (0.1-1.5 s each). A 10^6-record corpus cycle takes about 9 s, so the
  // corpus loop runs at least two measured cycles past its budget: with
  // one, the speed of the host in that one stretch set every corpus metric.
  const std::vector<Loop> loops = {
      {o.seconds * share(Stage::kCorpus), 2, [&](std::size_t i) { corpus.cycle(i); }},
      {o.seconds * share(Stage::kTraffic), 1, [&](std::size_t i) { traffic.iteration(i); }},
      {o.seconds * share(Stage::kAnalysis) / 3, workload->analysis.min_passes,
       [&](std::size_t i) { analysis.pass(i); }},
      {o.seconds * share(Stage::kAnalysis) * 2 / 3, 1,
       [&](std::size_t i) { analysis.session(i); }},
  };
  const auto walls = run_loops(loops, stage);
  corpus.finish();
  traffic.finish();
  analysis.finish();
  std::filesystem::remove_all(o.workdir);

  if (o.trace) {
    // Tracing overhead: each loop's median traced iteration against its
    // median untraced one, summed over the loops.
    double traced_s = 0;
    double untraced_s = 0;
    for (const auto& w : walls) {
      traced_s += median(w.traced);
      untraced_s += median(w.untraced);
    }
    if (!o.trace_out.empty()) spans.write_csv(o.trace_out);
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, s] : self_time_by_name(spans.spans())) self.emplace_back(s, name);
    std::sort(self.rbegin(), self.rend());
    std::cout << "# self-time-s {";
    for (std::size_t i = 0; i < self.size(); ++i) {
      std::cout << (i ? ", " : "") << json_string(self[i].second) << ": "
                << json_number(self[i].first);
    }
    std::cout << "}\n# trace {\"spans\": " << spans.spans().size()
              << ", \"traced_s\": " << json_number(traced_s)
              << ", \"untraced_s\": " << json_number(untraced_s)
              << ", \"overhead\": " << json_number(traced_s / untraced_s) << "}\n";
  } else {
    metrics["setup_s"] = setup_s;
    metrics["peak_rss_mb"] = peak_rss_mb();
  }

  // The printed names must be exactly the catalog's for this mode.
  const auto& catalog = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> expected;
  for (const auto& m : catalog) expected.insert(m.name);
  std::set<std::string> got;
  for (const auto& [name, value] : metrics) got.insert(name);
  if (got != expected) {
    throw std::logic_error("the measured metrics differ from the catalog");
  }

  for (const auto& f : acct.failures()) std::cerr << "check failed: " << f << '\n';
  const bool correct = acct.failed() == 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << acct.attempted() << ", \"failed\": " << acct.failed()
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    line << (i ? ", " : "") << json_string(catalog[i].name) << ": {\"value\": "
         << json_number(metrics.at(catalog[i].name)) << ", \"unit\": "
         << json_string(catalog[i].unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(e2ebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "dfsm_e2e: " << e.what() << '\n';
    return 2;
  }
}
