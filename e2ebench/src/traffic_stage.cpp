#include <memory>

#include "analysis/monitor.h"
#include "apps/ghttpd.h"
#include "apps/iis.h"
#include "apps/nullhttpd.h"
#include "fssim/filesystem.h"
#include "loadgen/engine.h"
#include "netsim/decode.h"
#include "netsim/http.h"
#include "stages.h"
#include "staticlint/linter.h"
#include "staticlint/registry.h"

namespace e2ebench {

namespace {

namespace analysis = dfsm::analysis;
namespace apps = dfsm::apps;
using loadgen::ServerKind;

struct RequestVerdict {
  bool detected = false;
  bool compromised = false;
  std::uint64_t violations = 0;
};

/// One fresh-connection request, the calls loadgen::serve_request makes,
/// with each layer call in its own span. Exploits and benign requests go
/// to separate span names so their costs stay apart.
RequestVerdict traced_request(SpanRecorder& spans, const SliceRequest& req,
                              std::uint64_t id) {
  const bool exploit = req.spec.exploit;
  RequestVerdict v;
  std::unique_ptr<analysis::RuntimeMonitor> monitor;
  const auto new_monitor = [&](dfsm::core::FsmModel (*model)()) {
    const SpanRecorder::Scope span(spans, "analysis.monitor_new", id);
    monitor = std::make_unique<analysis::RuntimeMonitor>(model());
    monitor->set_trace_enabled(false);
  };
  const auto observe = [&](const std::vector<std::vector<dfsm::core::Object>>& facts) {
    const SpanRecorder::Scope span(
        spans, exploit ? "analysis.observe_exploit" : "analysis.observe_benign", id);
    (void)monitor->observe(facts);
    v.violations = monitor->violations().size();
    v.detected = v.violations > 0;
  };

  switch (req.spec.server) {
    case ServerKind::kNullHttpd5774:
    case ServerKind::kNullHttpd6255: {
      std::unique_ptr<apps::NullHttpd> app;
      {
        const SpanRecorder::Scope span(spans, "apps.replica_new", id);
        app = std::make_unique<apps::NullHttpd>();
      }
      apps::NullHttpdResult r;
      {
        const SpanRecorder::Scope span(
            spans, exploit ? "apps.exploit_run" : "apps.nullhttpd_handle", id);
        r = app->handle_raw(req.payload);
      }
      v.compromised = r.mcode_executed;
      new_monitor(&apps::NullHttpd::figure4_model);
      observe(analysis::nullhttpd_observation(
          r.content_len, static_cast<std::int64_t>(r.bytes_read),
          static_cast<std::int64_t>(r.postdata_usable), !r.heap_overflowed,
          app->process().got().unchanged("free")));
      break;
    }
    case ServerKind::kGhttpd: {
      std::unique_ptr<apps::Ghttpd> app;
      {
        const SpanRecorder::Scope span(spans, "apps.replica_new", id);
        app = std::make_unique<apps::Ghttpd>();
      }
      apps::GhttpdResult r;
      {
        const SpanRecorder::Scope span(
            spans, exploit ? "apps.exploit_run" : "apps.ghttpd_serve", id);
        r = app->serve(req.payload);
      }
      v.compromised = r.mcode_executed;
      new_monitor(&apps::Ghttpd::ghttpd_model);
      observe(analysis::ghttpd_observation(
          static_cast<std::int64_t>(req.payload.size()), !r.ret_modified));
      break;
    }
    case ServerKind::kIis: {
      std::unique_ptr<apps::IisDecoder> app;
      std::unique_ptr<dfsm::fssim::FileSystem> fs;
      {
        const SpanRecorder::Scope span(spans, "apps.replica_new", id);
        app = std::make_unique<apps::IisDecoder>();
        fs = std::make_unique<dfsm::fssim::FileSystem>(app->initial_world());
      }
      apps::IisResult r;
      {
        const SpanRecorder::Scope span(
            spans, exploit ? "apps.exploit_run" : "apps.iis_serve", id);
        r = app->handle_cgi_request(*fs, req.payload);
      }
      v.compromised = r.executed && r.outside_scripts;
      new_monitor(&apps::IisDecoder::figure7_model);
      observe(analysis::iis_observation(
          r.decoded_once, r.decoded_twice.empty() ? r.decoded_once : r.decoded_twice));
      break;
    }
  }
  return v;
}

/// Lints the three monitor models, as run_load does before serving.
dfsm::staticlint::LintRun lint_monitors() {
  const auto snapshot = [](const dfsm::core::FsmModel& m) {
    return dfsm::staticlint::LintModel::from_model(
        m, dfsm::staticlint::source_hint_for(m.name()));
  };
  return dfsm::staticlint::lint({snapshot(apps::NullHttpd::figure4_model()),
                                 snapshot(apps::Ghttpd::ghttpd_model()),
                                 snapshot(apps::IisDecoder::figure7_model())});
}

void check_report(const loadgen::LoadReport& report, const TrafficInputs& in,
                  Accounting& acct) {
  const auto& w = in.workload;
  const auto& t = report.total;
  acct.attempt(t.requests);
  const auto exploits = loadgen::exploit_total(w.requests, w.exploit_ratio);
  acct.check(t.requests == w.requests, "run_load served the wrong request count");
  acct.check(t.exploit == exploits, "run_load exploit count is not floor(R*5/100)");
  acct.check(t.compromised == exploits, "compromised differs from the exploit count");
  acct.check(t.false_negatives == 0, "the monitor missed an exploit");
  acct.check(t.false_positives == 0, "the monitor flagged benign traffic");
  acct.check(!report.monitored || report.monitor_lint_clean,
             "a monitor model failed its lint");
}

}  // namespace

TrafficStage::TrafficStage(const TrafficInputs& in, StageRun& run)
    : in_(in),
      run_(run),
      monitored_{in.workload, true, 0},
      unmonitored_{in.workload, false, 0} {}

void TrafficStage::iteration(std::size_t index) {
  auto& spans = *run_.spans;
  auto& acct = *run_.acct;
  const SpanRecorder::Scope root(spans, "bench.traffic_iteration", index);
  {
    // run_load fans its agents out over the parallel pool; every other
    // call of the stage runs on the serial one.
    const ParallelPool pool(run_.threads);
    const auto t0 = now_ns();
    {
      const SpanRecorder::Scope span(spans, "loadgen.run_load", index);
      last_ = loadgen::run_load(monitored_);
    }
    run_.sample(load_s_, seconds_since(t0));
    if (run_.trace) {
      const SpanRecorder::Scope span(spans, "loadgen.run_load_unmonitored", index);
      const auto report = loadgen::run_load(unmonitored_);
      acct.check(report.total.requests == in_.workload.requests &&
                     report.total.compromised == report.total.exploit,
                 "unmonitored run_load totals are wrong");
    }
  }
  check_report(last_, in_, acct);

  if (!run_.trace) {
    // Fresh-connection latency, one closed-loop client.
    for (const auto& req : in_.slice) {
      const auto tr = now_ns();
      const auto out = loadgen::serve_request(req.spec.server, req.payload, true);
      run_.sample(slice_us_, seconds_since(tr) * 1e6);
      acct.check(out.detected == req.spec.exploit && out.compromised == req.spec.exploit,
                 "serve_request verdict disagrees with the ground truth");
    }
    return;
  }

  // Traced run: the per-layer breakdown of the same traffic.
  {
    const SpanRecorder::Scope span(spans, "staticlint.lint_monitors", index);
    acct.check(lint_monitors().findings.empty(), "monitor model lint found a problem");
  }

  auto t0 = now_ns();
  std::uint64_t checksum = 0;
  {
    const SpanRecorder::Scope span(spans, "loadgen.request_spec", index);
    for (std::size_t j = 0; j < in_.slice.size(); ++j) {
      checksum += loadgen::request_spec(in_.workload, j % in_.workload.agents, j).jitter_us;
    }
  }
  run_.sample(spec_ns_, seconds_since(t0) * 1e9 / static_cast<double>(in_.slice.size()));
  acct.check(checksum > 0, "request_spec produced no jitter");

  // netsim calls the replicas make inside their request handlers, timed
  // as standalone loops over the slice payloads (their cost is also part
  // of the apps spans below).
  std::size_t parsed = 0;
  t0 = now_ns();
  {
    const SpanRecorder::Scope span(spans, "netsim.parse_head", index);
    for (const auto& req : in_.slice) {
      if (req.spec.server != ServerKind::kNullHttpd5774 &&
          req.spec.server != ServerKind::kNullHttpd6255) {
        continue;
      }
      parsed += dfsm::netsim::parse_head(req.payload) ? 1 : 0;
    }
  }
  if (parsed > 0) {
    run_.sample(parse_us_, seconds_since(t0) * 1e6 / static_cast<double>(parsed));
  }

  std::size_t decoded = 0;
  t0 = now_ns();
  {
    const SpanRecorder::Scope span(spans, "netsim.percent_decode", index);
    for (const auto& req : in_.slice) {
      if (req.spec.server != ServerKind::kIis) continue;
      decoded += dfsm::netsim::percent_decode(req.payload).empty() ? 0 : 1;
    }
  }
  if (decoded > 0) {
    run_.sample(decode_ns_, seconds_since(t0) * 1e9 / static_cast<double>(decoded));
  }

  violations_ = 0;
  for (const auto& req : in_.slice) {
    const std::uint64_t id = request_id_++;
    const SpanRecorder::Scope span(spans, "bench.request", id);
    const auto v = traced_request(spans, req, id);
    violations_ += v.violations;
    acct.check(v.detected == req.spec.exploit && v.compromised == req.spec.exploit,
               "replayed verdict disagrees with the ground truth");
  }
}

void TrafficStage::finish() {
  const double requests = static_cast<double>(in_.workload.requests);
  if (!run_.trace) {
    run_.set("traffic_rps", requests / median(load_s_));
    run_.set("request_p50_us", windowed_percentile(slice_us_, in_.slice.size(), 50));
    run_.set("request_p99_us", windowed_percentile(slice_us_, in_.slice.size(), 99));
    return;
  }

  const auto& all = run_.spans->spans();
  const auto us = [&all](const char* name) {
    return median(durations_s(all, name)) * 1e6;
  };
  const double monitored_s = median(durations_s(all, "loadgen.run_load"));
  const double plain_s = median(durations_s(all, "loadgen.run_load_unmonitored"));
  run_.set("loadgen.request_spec_ns", median(spec_ns_));
  run_.set("loadgen.unmonitored_rps", requests / plain_s);
  run_.set("loadgen.monitor_overhead", monitored_s / plain_s);
  run_.set("loadgen.monitored_s", monitored_s);
  run_.set("loadgen.unmonitored_s", plain_s);
  const auto& t = last_.total;
  run_.set("loadgen.requests", static_cast<double>(t.requests));
  run_.set("loadgen.exploits", static_cast<double>(t.exploit));
  run_.set("loadgen.detected", static_cast<double>(t.detected));
  run_.set("loadgen.false_negatives", static_cast<double>(t.false_negatives));
  run_.set("loadgen.false_positives", static_cast<double>(t.false_positives));
  run_.set("loadgen.compromised", static_cast<double>(t.compromised));
  run_.set("loadgen.rejected", static_cast<double>(t.rejected));
  run_.set("loadgen.crashed", static_cast<double>(t.crashed));
  run_.set("netsim.parse_head_us", median(parse_us_));
  run_.set("netsim.percent_decode_ns", median(decode_ns_));
  run_.set("apps.replica_new_us", us("apps.replica_new"));
  run_.set("apps.exploit_run_us", us("apps.exploit_run"));
  run_.set("apps.nullhttpd_handle_us", us("apps.nullhttpd_handle"));
  run_.set("apps.ghttpd_serve_us", us("apps.ghttpd_serve"));
  run_.set("apps.iis_serve_us", us("apps.iis_serve"));
  run_.set("analysis.monitor_new_us", us("analysis.monitor_new"));
  run_.set("analysis.observe_benign_us", us("analysis.observe_benign"));
  run_.set("analysis.observe_exploit_us", us("analysis.observe_exploit"));
  run_.set("analysis.violations", static_cast<double>(violations_));
  run_.set("staticlint.monitor_lint_ms", us("staticlint.lint_monitors") / 1e3);

  // The same monitored run on the serial pool, for the fan-out speed-up.
  const auto t0 = now_ns();
  const auto serial = loadgen::run_load(monitored_);
  const double serial_s = seconds_since(t0);
  check_report(serial, in_, *run_.acct);
  run_.set("runtime.speedup_4t.run_load", serial_s / monitored_s);
}

}  // namespace e2ebench
