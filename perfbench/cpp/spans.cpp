#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

void Spans::begin_root(const char* layer) {
  if (!enabled_) return;
  root_id_ = next_root_++;
  root_totals_.clear();
  open(layer, Clock::now());
}

std::map<std::string, Spans::LayerTotals> Spans::end_root() {
  if (!enabled_) return {};
  close(Clock::now());
  if (!stack_.empty()) throw std::logic_error("spans: root closed with open children");
  std::map<std::string, LayerTotals> totals;
  for (const auto& [layer, layer_totals] : root_totals_) totals[layer] = layer_totals;
  return totals;
}

Spans::Scope::Scope(Spans& spans, const char* layer)
    : spans_(spans), start_(Clock::now()) {
  if (spans_.enabled_ && !spans_.stack_.empty()) {
    spans_.open(layer, start_);
    opened_ = true;
  }
}

Spans::Scope::~Scope() {
  if (opened_) spans_.close(Clock::now());
}

void Spans::open(const char* layer, Clock::time_point start) {
  std::uint32_t index = kNotKept;
  if (kept_.size() < kMaxKept) {
    index = static_cast<std::uint32_t>(kept_.size());
    std::uint32_t parent = kNoParent;
    if (!stack_.empty()) parent = stack_.back().index;
    kept_.push_back(Record{layer, root_id_, parent,
                           std::chrono::duration<double>(start - origin_).count(),
                           0.0});
  }
  stack_.push_back(Open{layer, index, start});
}

void Spans::close(Clock::time_point end) {
  const Open span = stack_.back();
  stack_.pop_back();
  const double duration = std::chrono::duration<double>(end - span.start).count();
  LayerTotals* found = nullptr;
  for (auto& [layer, layer_totals] : root_totals_) {
    if (layer == span.layer || std::strcmp(layer, span.layer) == 0) {
      found = &layer_totals;
      break;
    }
  }
  if (found == nullptr) found = &root_totals_.emplace_back(span.layer, LayerTotals{}).second;
  LayerTotals& totals = *found;
  totals.total_s += duration;
  totals.self_s += duration - span.child_s;
  ++totals.count;
  ++recorded_;
  if (!stack_.empty()) stack_.back().child_s += duration;
  if (span.index != kNotKept) {
    kept_[span.index].end_s = std::chrono::duration<double>(end - origin_).count();
  }
}

void Spans::write_jsonl(const std::filesystem::path& file) const {
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("spans: cannot write " + file.string());
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"layer\": \"%s\", \"root\": %llu, \"parent\": %lld, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, r.layer, static_cast<unsigned long long>(r.root_id),
                 r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 r.start_s, r.end_s);
  }
  std::fclose(out);
}

}  // namespace perfbench
