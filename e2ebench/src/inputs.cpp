#include "inputs.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "apps/ghttpd.h"
#include "apps/iis.h"
#include "apps/nullhttpd.h"
#include "bugtraq/corpus.h"
#include "netsim/http.h"

namespace e2ebench {

using dfsm::bugtraq::Category;
using dfsm::bugtraq::VulnClass;
using dfsm::bugtraq::VulnRecord;
using dfsm::bugtraq::splitmix64;

namespace {

/// Independent stream per input family, so resizing one family never
/// changes another's inputs.
std::uint64_t stream(std::uint64_t seed, std::uint64_t family) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (family + 1));
  return splitmix64(s);
}

std::uint64_t draw(std::uint64_t& state, std::uint64_t bound) {
  return splitmix64(state) % bound;
}

/// n values from [0, domain), each used floor(n/domain) or ceil(n/domain)
/// times, in a seeded order: the mix is the same at every seed.
std::vector<std::size_t> balanced(std::size_t n, std::size_t domain,
                                  std::uint64_t& state) {
  std::vector<std::size_t> base(domain);
  for (std::size_t i = 0; i < domain; ++i) base[i] = i;
  for (std::size_t i = domain; i > 1; --i) std::swap(base[i - 1], base[draw(state, i)]);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base[i % domain];
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[draw(state, i)]);
  return out;
}

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void hash_record(Fnv& f, const VulnRecord& r) {
  f.u64(static_cast<std::uint64_t>(r.id));
  f.str(r.title);
  f.str(r.software);
  f.u64(static_cast<std::uint64_t>(r.year));
  f.u64(r.remote ? 1 : 0);
  f.u64(static_cast<std::uint64_t>(r.category));
  f.u64(static_cast<std::uint64_t>(r.vuln_class));
  f.str(r.description);
}

/// The curated exploit payloads, built once (the replicas are
/// deterministic, so every exploit request of a kind is the same bytes).
struct ExploitPayloads {
  std::string nullhttpd_5774 = dfsm::apps::NullHttpd::build_exploit_request(
      dfsm::apps::NullHttpd::scout(-800), -800);
  std::string nullhttpd_6255 = dfsm::apps::NullHttpd::build_exploit_request(
      dfsm::apps::NullHttpd::scout(0), 0);
  std::string ghttpd = dfsm::apps::Ghttpd{}.build_exploit();
  std::string iis = dfsm::apps::IisDecoder::nimda_payload();
};

/// The wire payload the traffic engine sends for `spec`: benign payloads
/// are rebuilt from the size parameter exactly as loadgen/engine.cpp
/// builds them.
std::string payload_for(const loadgen::RequestSpec& spec,
                        const ExploitPayloads& exploits) {
  using loadgen::ServerKind;
  switch (spec.server) {
    case ServerKind::kNullHttpd5774:
    case ServerKind::kNullHttpd6255: {
      if (spec.exploit) {
        return spec.server == ServerKind::kNullHttpd5774
                   ? exploits.nullhttpd_5774
                   : exploits.nullhttpd_6255;
      }
      dfsm::netsim::HttpRequest req;
      req.method = "POST";
      req.path = "/cgi-bin/form";
      req.headers["Content-Length"] = std::to_string(spec.benign_size);
      req.headers["Host"] = "victim";
      return dfsm::netsim::serialize(req, std::string(spec.benign_size, 'b'));
    }
    case ServerKind::kGhttpd:
      return spec.exploit ? exploits.ghttpd
                          : "GET /" + std::string(spec.benign_size % 150, 'a') +
                                " HTTP/1.0";
    case ServerKind::kIis:
      if (spec.exploit) return exploits.iis;
      return spec.benign_size % 2 == 0 ? "hello.cgi" : "hello%2ecgi";
  }
  throw std::logic_error("unknown server kind");
}

}  // namespace

bool Query::matches(const VulnRecord& r) const {
  switch (kind) {
    case Kind::kCategory:
      return r.category == category;
    case Kind::kRemoteYear:
      return r.remote && r.year == year_lo;
    case Kind::kLocalClass:
      return !r.remote && r.vuln_class == vuln_class;
    case Kind::kSoftware:
      return r.software == software;
    case Kind::kCategoryYears:
      return r.category == category && r.year >= year_lo && r.year <= year_hi;
  }
  return false;
}

std::string Query::describe() const {
  switch (kind) {
    case Kind::kCategory:
      return std::string("category=") + to_string(category);
    case Kind::kRemoteYear:
      return "remote year=" + std::to_string(year_lo);
    case Kind::kLocalClass:
      return std::string("local class=") + to_string(vuln_class);
    case Kind::kSoftware:
      return "software=" + software;
    case Kind::kCategoryYears:
      return std::string("category=") + to_string(category) + " years " +
             std::to_string(year_lo) + ".." + std::to_string(year_hi);
  }
  return "?";
}

CorpusInputs make_corpus_inputs(const CorpusSize& size, std::uint64_t seed) {
  CorpusInputs in;
  const auto t0 = now_ns();
  in.corpus = dfsm::bugtraq::synthetic_corpus_n(size.records, stream(seed, 1));

  // The second corpus comes from its own seed; its ids are shifted past
  // the first corpus so the ingest never trips the duplicate-id check.
  const auto second =
      dfsm::bugtraq::synthetic_corpus_n(size.ingest_records, stream(seed, 2));
  in.generate_s = seconds_since(t0);
  const auto records = second.records();
  const int shift = static_cast<int>(size.records);
  in.batches.reserve((records.size() + kIngestBatch - 1) / kIngestBatch);
  for (std::size_t b = 0; b < records.size(); b += kIngestBatch) {
    const std::size_t e = std::min(records.size(), b + kIngestBatch);
    std::vector<VulnRecord> batch(records.begin() + static_cast<long>(b),
                                  records.begin() + static_cast<long>(e));
    for (auto& r : batch) r.id += shift;
    in.batches.push_back(std::move(batch));
  }

  const auto snap = in.corpus.snapshot();
  const auto names = snap->software_names();
  // Query q is round q / 5 of kind q % 5. Within a kind, every parameter
  // cycles over its whole domain in a seeded order, so the mix of
  // selectivities (which sets a query's cost) is the same at every seed.
  std::uint64_t s = stream(seed, 3);
  const std::size_t rounds = (size.queries + 4) / 5;
  const auto category = balanced(rounds, dfsm::bugtraq::kCategoryCount, s);
  const auto window_category = balanced(rounds, dfsm::bugtraq::kCategoryCount, s);
  const auto vuln_class = balanced(rounds, dfsm::bugtraq::kVulnClassCount, s);
  const auto year = balanced(rounds, 4, s);  // the corpus spans 1999..2002
  const auto window_start = balanced(rounds, 4, s);
  const auto window_length = balanced(rounds, 4, s);
  in.queries.reserve(size.queries);
  for (std::size_t q = 0; q < size.queries; ++q) {
    const std::size_t r = q / 5;
    Query query;
    query.kind = static_cast<Query::Kind>(q % 5);
    switch (query.kind) {
      case Query::Kind::kCategory:
        query.category = dfsm::bugtraq::kAllCategories[category[r]];
        break;
      case Query::Kind::kRemoteYear:
        query.year_lo = 1999 + static_cast<int>(year[r]);
        break;
      case Query::Kind::kLocalClass:
        query.vuln_class = static_cast<VulnClass>(vuln_class[r]);
        break;
      case Query::Kind::kSoftware:
        query.software = names.empty() ? "" : names[draw(s, names.size())];
        break;
      case Query::Kind::kCategoryYears:
        query.category = dfsm::bugtraq::kAllCategories[window_category[r]];
        query.year_lo = 1999 + static_cast<int>(window_start[r]);
        query.year_hi = query.year_lo + static_cast<int>(window_length[r]);
        break;
    }
    in.queries.push_back(std::move(query));
  }
  return in;
}

TrafficInputs make_traffic_inputs(const TrafficSize& size, std::uint64_t seed) {
  TrafficInputs in;
  in.workload.seed = stream(seed, 4);
  in.workload.agents = 32;
  in.workload.requests = size.requests;
  in.workload.exploit_ratio = {5, 100};

  // The slice is a seeded window of the same stream, spread over agents:
  // request j is request (offset + j / agents) of agent j % agents.
  const std::uint64_t agents = in.workload.agents;
  const std::uint64_t per_agent = size.requests / agents;
  const std::uint64_t rows = (size.slice + agents - 1) / agents;
  if (rows > per_agent) {
    throw std::invalid_argument("traffic slice is larger than the stream");
  }
  std::uint64_t s = stream(seed, 5);
  const std::uint64_t offset = draw(s, per_agent - rows + 1);
  const ExploitPayloads exploits;
  in.slice.reserve(size.slice);
  for (std::size_t j = 0; j < size.slice; ++j) {
    const auto spec =
        loadgen::request_spec(in.workload, j % agents, offset + j / agents);
    in.slice.push_back({spec, payload_for(spec, exploits)});
  }
  return in;
}

AnalysisInputs make_analysis_inputs(const AnalysisSize& size,
                                    std::uint64_t seed) {
  AnalysisInputs in;
  std::uint64_t s = stream(seed, 6);
  in.corpus_seed = splitmix64(s);
  for (const std::size_t k : size.whatif_k) {
    // The chain shape is fixed by k (the largest divisor of k up to four
    // checks per operation), so a study costs the same at every seed; the
    // seed draws the concrete inputs and the session order.
    WhatIfStudy study;
    study.checks_per_operation = 1;
    for (std::size_t c = 2; c <= 4; ++c) {
      if (k % c == 0) study.checks_per_operation = c;
    }
    study.operations = k / study.checks_per_operation;
    study.batch.reserve(kEvaluateBatch);
    for (std::size_t i = 0; i < kEvaluateBatch; ++i) {
      std::vector<std::vector<dfsm::core::Object>> inputs(study.operations);
      for (auto& op : inputs) {
        for (std::size_t c = 0; c < study.checks_per_operation; ++c) {
          // Mostly in-spec values, with hidden-path (< 0) and rejected
          // (> 100) values mixed in.
          const auto x = static_cast<std::int64_t>(draw(s, 110)) - 5;
          study.batch_x.push_back(x);
          op.push_back(dfsm::core::Object{"x"}.with("x", x));
        }
      }
      study.batch.push_back(std::move(inputs));
    }
    in.whatif.push_back(std::move(study));
  }
  // The sessions visit the studies in a seeded order.
  for (std::size_t i = in.whatif.size(); i > 1; --i) {
    std::swap(in.whatif[i - 1], in.whatif[draw(s, i)]);
  }
  return in;
}

std::uint64_t digest(const CorpusInputs& in) {
  Fnv f;
  for (const auto& r : in.corpus.records()) hash_record(f, r);
  for (const auto& batch : in.batches) {
    for (const auto& r : batch) hash_record(f, r);
  }
  for (const auto& q : in.queries) f.str(q.describe());
  return f.value();
}

std::uint64_t digest(const TrafficInputs& in) {
  Fnv f;
  const auto& w = in.workload;
  f.u64(w.seed);
  f.u64(w.agents);
  f.u64(w.requests);
  f.u64(w.exploit_ratio.num);
  f.u64(w.exploit_ratio.den);
  for (const auto& r : in.slice) {
    f.u64(r.spec.global_index);
    f.str(r.payload);
  }
  return f.value();
}

std::uint64_t digest(const AnalysisInputs& in) {
  Fnv f;
  f.u64(in.corpus_seed);
  for (const auto& study : in.whatif) {
    f.u64(study.operations);
    f.u64(study.checks_per_operation);
    for (const auto x : study.batch_x) f.u64(static_cast<std::uint64_t>(x));
  }
  return f.value();
}

}  // namespace e2ebench
