#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace peppher::bench {

namespace {

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kVirtual:
      return "virtual";
    case Clock::kWall:
      return "wall";
    case Clock::kNone:
      break;
  }
  return "none";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double, so a value compares
/// bit-exactly with the committed record; null (rejected by the checker)
/// for a value JSON cannot hold.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string label_text(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ' ';
    out += key + '=' + value;
  }
  return out;
}

}  // namespace

Report::Report(std::string bench, int argc, char** argv)
    : bench_(std::move(bench)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg.rfind("--json=", 0) == 0 && arg.size() > 7) {
      json_path_ = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--json=FILE] [--smoke]\n", argv[0]);
      std::exit(2);
    }
  }
  std::printf("bench %s%s\n", bench_.c_str(), smoke_ ? " (smoke)" : "");
}

void Report::add(const std::string& metric, const Labels& labels,
                 double value, const std::string& unit, Clock clock) {
  std::printf("  %-24s %-36s %14.6g %s [%s]\n", metric.c_str(),
              label_text(labels).c_str(), value, unit.c_str(),
              clock_name(clock));
  std::fflush(stdout);
  records_.push_back({metric, labels, value, unit, clock});
}

int Report::finish() const {
  if (json_path_.empty()) return 0;
  std::ostringstream out;
  out << "{\n  \"schema\": \"peppher-bench v1\",\n  \"bench\": "
      << json_string(bench_) << ",\n  \"smoke\": "
      << (smoke_ ? "true" : "false") << ",\n  \"records\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"metric\": "
        << json_string(r.metric) << ", \"labels\": {";
    for (std::size_t l = 0; l < r.labels.size(); ++l) {
      out << (l == 0 ? "" : ", ") << json_string(r.labels[l].first) << ": "
          << json_string(r.labels[l].second);
    }
    out << "}, \"value\": " << json_number(r.value)
        << ", \"unit\": " << json_string(r.unit) << ", \"clock\": \""
        << clock_name(r.clock) << "\"}";
  }
  out << "\n  ]\n}\n";

  std::ofstream file(json_path_);
  file << out.str();
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
    return 1;
  }
  return 0;
}

}  // namespace peppher::bench
