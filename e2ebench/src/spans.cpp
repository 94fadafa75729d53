#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace e2ebench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t id) {
  if (!recorder.enabled_) return;
  recorder_ = &recorder;
  saved_open_ = recorder.open_;
  index_ = static_cast<std::int32_t>(recorder.spans_.size());
  recorder.spans_.push_back(Span{name, id, 0, 0, saved_open_});
  recorder.open_ = index_;
  recorder.spans_.back().start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  recorder_->open_ = saved_open_;
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const auto self = self_times_ns(spans_);
  out << "index,name,id,start_ns,end_ns,parent,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << i << ',' << s.name << ',' << s.id << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.parent << ',' << self[i] << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write span file " + path);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& parent = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;  // covered up to here
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, parent.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = parent.duration_ns() - covered;
  }
  return self;
}

std::vector<double> durations_s(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()) * 1e-9);
  }
  return out;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

}  // namespace e2ebench
