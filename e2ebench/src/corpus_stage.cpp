#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "bugtraq/colsnap.h"
#include "bugtraq/csv_shards.h"
#include "bugtraq/stats.h"
#include "stages.h"

namespace e2ebench {

namespace {

using bugtraq::Database;

constexpr std::size_t kShards = 4;
constexpr auto kReaderPeriod = std::chrono::microseconds(200);
/// Ingest rate is sampled per window of this many batches. The median
/// window leaves out the few where the arena and the id index grow; the
/// rate of whole ingests varied from 1.1 to 1.9 M/s between runs.
constexpr std::size_t kIngestWindow = 50;
/// colsnap reloads per cycle.
constexpr std::size_t kColsnapLoads = 3;
/// Back-to-back calls of each query per sample.
constexpr std::size_t kQueryRepeats = 2;

/// Every statistic the lifecycle computes after a load, rendered with
/// full precision so two databases compare by string.
std::string corpus_stats(const Database& db) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& s : bugtraq::category_breakdown(db)) {
    out << to_string(s.category) << ' ' << s.count << ' ' << s.percent << ' '
        << s.rounded_percent << '\n';
  }
  const auto studied = bugtraq::studied_share(db);
  out << "studied " << studied.studied_count << '/' << studied.total << ' '
      << studied.percent << '\n';
  for (const auto& c : studied.classes) {
    out << to_string(c.vuln_class) << ' ' << c.count << ' ' << c.percent << '\n';
  }
  for (const auto& y : bugtraq::by_year(db)) {
    out << "year " << y.year << ' ' << y.count << '\n';
  }
  for (const auto& s : bugtraq::top_software(db, 10)) {
    out << "software " << s.software << ' ' << s.count << '\n';
  }
  return out.str();
}

std::uintmax_t total_bytes(const std::vector<std::string>& paths) {
  std::uintmax_t n = 0;
  for (const auto& p : paths) n += std::filesystem::file_size(p);
  return n;
}

/// Pins a snapshot every kReaderPeriod while the writer ingests, and
/// checks each one is internally consistent (its histograms cover
/// exactly its records) and never older than the last.
class SnapshotReader {
 public:
  explicit SnapshotReader(const Database& db)
      : thread_([this, &db](std::stop_token stop) {
          std::size_t last = 0;
          while (!stop.stop_requested()) {
            const auto snap = db.snapshot();
            const auto& h = snap->histograms().by_category;
            const std::size_t covered = std::accumulate(h.begin(), h.end(), std::size_t{0});
            if (covered != snap->size() || snap->size() < last) {
              inconsistent_.fetch_add(1, std::memory_order_relaxed);
            }
            last = snap->size();
            acquires_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(kReaderPeriod);
          }
        }) {}

  /// Stops and joins the reader.
  void stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::size_t acquires() const { return acquires_.load(); }
  [[nodiscard]] std::size_t inconsistent() const { return inconsistent_.load(); }

 private:
  std::atomic<std::size_t> acquires_{0};
  std::atomic<std::size_t> inconsistent_{0};
  std::jthread thread_;  // declared last: starts after the counters exist
};

}  // namespace

CorpusStage::CorpusStage(const CorpusInputs& in, StageRun& run)
    : in_(in), run_(run), reference_(corpus_stats(in.corpus)) {
  // Reference query answers: one serial pass over the generated corpus.
  reference_counts_.resize(in.queries.size());
  for (const auto& r : in.corpus.records()) {
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      reference_counts_[q] += in.queries[q].matches(r) ? 1 : 0;
    }
  }
  for (const auto& b : in.batches) ingest_records_ += b.size();
  std::filesystem::create_directories(run.workdir);
}

CorpusStage::~CorpusStage() {
  std::error_code ignored;
  for (const auto& p : csv_paths_) std::filesystem::remove(p, ignored);
  for (const auto& p : colsnap_paths_) std::filesystem::remove(p, ignored);
}

void CorpusStage::cycle(std::size_t index) {
  auto& spans = *run_.spans;
  auto& acct = *run_.acct;
  const std::string base = run_.workdir + "/corpus";
  const SpanRecorder::Scope root(spans, "bench.corpus_cycle", index);

  // 1. Save in both formats.
  auto t0 = now_ns();
  {
    const SpanRecorder::Scope span(spans, "bugtraq.write_csv_shards", index);
    csv_paths_ = bugtraq::write_csv_shards(in_.corpus, base, kShards);
  }
  {
    const SpanRecorder::Scope span(spans, "bugtraq.write_colsnap_shards", index);
    colsnap_paths_ = bugtraq::write_colsnap_shards(in_.corpus, base, kShards);
  }
  run_.sample(save_s_, seconds_since(t0));
  acct.attempt(2);
  csv_bytes_ = total_bytes(csv_paths_);
  colsnap_bytes_ = total_bytes(colsnap_paths_);

  // 2. Reload each format and compute the statistics.
  std::string stats;
  t0 = now_ns();
  {
    Database db;
    {
      const SpanRecorder::Scope span(spans, "bugtraq.read_csv_shards", index);
      db = bugtraq::read_csv_shards(csv_paths_);
    }
    {
      const SpanRecorder::Scope span(spans, "bugtraq.stats", index);
      stats = corpus_stats(db);
    }
    // Stopped before the database is freed, as for colsnap below.
    run_.sample(load_csv_s_, seconds_since(t0));
  }
  acct.check(stats == reference_, "CSV reload stats differ from the generated corpus");

  // The colsnap reload is a fifth of the CSV one, so it runs
  // kColsnapLoads times a cycle for more samples; the last copy is the
  // one ingested into.
  std::optional<Database> reloaded;
  for (std::size_t l = 0; l < kColsnapLoads; ++l) {
    reloaded.reset();
    t0 = now_ns();
    {
      const SpanRecorder::Scope span(spans, "bugtraq.read_colsnap_shards", index);
      reloaded.emplace(bugtraq::read_colsnap_shards(colsnap_paths_));
    }
    {
      const SpanRecorder::Scope span(spans, "bugtraq.stats", index);
      stats = corpus_stats(*reloaded);
    }
    run_.sample(load_colsnap_s_, seconds_since(t0));
    acct.check(stats == reference_, "colsnap reload stats differ from the generated corpus");
  }
  Database& db = *reloaded;

  // 3. Ingest the second corpus in batches while a reader pins
  // snapshots. The copies are made before the clock starts.
  const auto loaded = db.snapshot();
  auto batches = in_.batches;
  SnapshotReader reader(db);
  t0 = now_ns();
  std::size_t window_records = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    window_records += batches[b].size();
    {
      const SpanRecorder::Scope span(spans, "bugtraq.add_batch", b);
      db.add_batch(std::move(batches[b]));
    }
    if ((b + 1) % kIngestWindow == 0) {
      run_.sample(ingest_rps_, static_cast<double>(window_records) / seconds_since(t0));
      window_records = 0;
      t0 = now_ns();
    }
  }
  reader.stop();
  acct.attempt(batches.size());
  const auto after = db.snapshot();
  acct.check(after->size() == loaded->size() + ingest_records_, "ingest lost records");
  acct.check(after->epoch() - loaded->epoch() == batches.size(),
             "ingest published the wrong number of epochs");
  acct.check(after->histograms() == bugtraq::rebuild_histograms(*after),
             "carried histograms differ from rebuild_histograms after ingest");
  acct.check(reader.inconsistent() == 0, "a pinned snapshot was inconsistent");
  run_.sample(epochs_, static_cast<double>(after->epoch() - loaded->epoch()));
  run_.sample(acquires_, static_cast<double>(reader.acquires()));

  // 4. Analyst queries against the loaded snapshot. Each query runs
  // kQueryRepeats times back to back; its sample is the mean call.
  for (std::size_t q = 0; q < in_.queries.size(); ++q) {
    const auto& query = in_.queries[q];
    std::array<std::size_t, kQueryRepeats> answers{};
    const auto tq = now_ns();
    for (auto& n : answers) {
      const SpanRecorder::Scope span(spans, "bugtraq.count", q);
      n = loaded->count([&query](const bugtraq::VulnRecord& r) { return query.matches(r); });
    }
    run_.sample(query_ms_, seconds_since(tq) * 1e3 / kQueryRepeats);
    for (const auto n : answers) {
      acct.check(n == reference_counts_[q], "count(" + query.describe() + ") is wrong");
    }
  }
}

void CorpusStage::finish() {
  if (!run_.trace) {
    run_.set("corpus_save_s", median(save_s_));
    run_.set("corpus_load_csv_s", median(load_csv_s_));
    run_.set("corpus_load_colsnap_s", median(load_colsnap_s_));
    run_.set("corpus_ingest_rps", median(ingest_rps_));
    run_.set("corpus_query_p50_ms", windowed_percentile(query_ms_, in_.queries.size(), 50));
    run_.set("corpus_query_p90_ms", windowed_percentile(query_ms_, in_.queries.size(), 90));
    return;
  }
  const auto& all = run_.spans->spans();
  const double records = static_cast<double>(in_.corpus.size());
  const double csv_read = median(durations_s(all, "bugtraq.read_csv_shards"));
  const double colsnap_read = median(durations_s(all, "bugtraq.read_colsnap_shards"));
  run_.set("bugtraq.generate_s", in_.generate_s);
  run_.set("bugtraq.csv_write_s", median(durations_s(all, "bugtraq.write_csv_shards")));
  run_.set("bugtraq.colsnap_write_s", median(durations_s(all, "bugtraq.write_colsnap_shards")));
  run_.set("bugtraq.csv_read_s", csv_read);
  run_.set("bugtraq.csv_read_mb_per_s", static_cast<double>(csv_bytes_) / 1e6 / csv_read);
  run_.set("bugtraq.colsnap_read_s", colsnap_read);
  run_.set("bugtraq.colsnap_read_mb_per_s",
           static_cast<double>(colsnap_bytes_) / 1e6 / colsnap_read);
  run_.set("bugtraq.stats_ms", median(durations_s(all, "bugtraq.stats")) * 1e3);
  run_.set("bugtraq.csv_bytes_per_record", static_cast<double>(csv_bytes_) / records);
  run_.set("bugtraq.colsnap_bytes_per_record", static_cast<double>(colsnap_bytes_) / records);
  const auto batches = durations_s(all, "bugtraq.add_batch");
  run_.set("bugtraq.add_batch_p50_us", percentile(batches, 50) * 1e6);
  run_.set("bugtraq.add_batch_p99_us", percentile(batches, 99) * 1e6);
  run_.set("bugtraq.epochs_published", median(epochs_));
  run_.set("bugtraq.reader_acquires", median(acquires_));
  run_.set("bugtraq.count_ms", median(durations_s(all, "bugtraq.count")) * 1e3);

  // The same reads on the parallel pool, for the fan-out speed-up.
  const ParallelPool pool(run_.threads);
  auto t0 = now_ns();
  const auto parallel_csv = bugtraq::read_csv_shards(csv_paths_);
  const double csv_parallel = seconds_since(t0);
  t0 = now_ns();
  const auto parallel_colsnap = bugtraq::read_colsnap_shards(colsnap_paths_);
  const double colsnap_parallel = seconds_since(t0);
  run_.acct->check(corpus_stats(parallel_csv) == reference_, "parallel CSV reload differs");
  run_.acct->check(corpus_stats(parallel_colsnap) == reference_,
                   "parallel colsnap reload differs");
  run_.set("runtime.speedup_4t.csv_read", csv_read / csv_parallel);
  run_.set("runtime.speedup_4t.colsnap_read", colsnap_read / colsnap_parallel);
}

}  // namespace e2ebench
