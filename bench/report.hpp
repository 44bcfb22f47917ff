// The one record emitter of the bench binaries (every one except the
// google-benchmark bench_task_overhead): it parses the two flags every bench
// takes, prints each record as it is added, and writes the
// `peppher-bench v1` document that tools/check_bench.py validates and gates
// against bench/gates.json.
//
//   --json=FILE  also write the document to FILE
//   --smoke      tiny problem sizes that exercise every path quickly
//
// Document shape:
//
//   {"schema": "peppher-bench v1", "bench": "<name>", "smoke": false,
//    "records": [{"metric": "...", "labels": {"key": "value"},
//                 "value": 1.5, "unit": "s", "clock": "virtual"}, ...]}
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace peppher::bench {

/// The clock a value was measured on: simulated device time, real
/// wall-clock time, or neither (counts, bytes, lines of code, ratios of
/// counts).
enum class Clock { kVirtual, kWall, kNone };

/// Key/value pairs that tell apart the records sharing one metric, e.g.
/// {{"matrix", "HB"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Report {
 public:
  /// Parses argv; prints a usage line and exits 2 on any other argument.
  Report(std::string bench, int argc, char** argv);

  bool smoke() const { return smoke_; }

  /// Records one value and prints it as a text line.
  void add(const std::string& metric, const Labels& labels, double value,
           const std::string& unit, Clock clock);

  /// Writes the document to the --json file, if one was given. Returns the
  /// process exit status: 0, or 1 when the file cannot be written.
  int finish() const;

 private:
  struct Record {
    std::string metric;
    Labels labels;
    double value = 0.0;
    std::string unit;
    Clock clock = Clock::kNone;
  };

  std::string bench_;
  std::string json_path_;
  bool smoke_ = false;
  std::vector<Record> records_;
};

}  // namespace peppher::bench
