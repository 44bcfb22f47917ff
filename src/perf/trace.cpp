#include "perf/trace.hpp"

#include <cmath>
#include <limits>
#include <map>

#include "perf/json.hpp"
#include "support/error.hpp"

namespace peppher::perf {
namespace {

[[noreturn]] void fail_at(const std::string& message, const JsonValue& value) {
  throw ParseError(message, value.line, value.column);
}

const JsonValue& expect_kind(const JsonValue& value, JsonValue::Kind kind,
                             const std::string& what) {
  if (value.kind != kind) {
    fail_at(what + " must be a " + std::string(JsonValue::kind_name(kind)) +
                ", got " + std::string(JsonValue::kind_name(value.kind)),
            value);
  }
  return value;
}

const JsonValue& require(const JsonValue& object, const std::string& key,
                         const std::string& what) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    fail_at(what + " is missing required field \"" + key + "\"", object);
  }
  return *member;
}

double get_number(const JsonValue& object, const std::string& key,
                  const std::string& what) {
  return expect_kind(require(object, key, what), JsonValue::Kind::kNumber,
                     what + "." + key)
      .number;
}

std::string get_string(const JsonValue& object, const std::string& key,
                       const std::string& what) {
  return expect_kind(require(object, key, what), JsonValue::Kind::kString,
                     what + "." + key)
      .string;
}

bool get_bool(const JsonValue& object, const std::string& key,
              const std::string& what) {
  return expect_kind(require(object, key, what), JsonValue::Kind::kBool,
                     what + "." + key)
      .boolean;
}

int get_int(const JsonValue& object, const std::string& key,
            const std::string& what) {
  const JsonValue& value = require(object, key, what);
  expect_kind(value, JsonValue::Kind::kNumber, what + "." + key);
  const double number = value.number;
  if (number != std::floor(number)) {
    fail_at(what + "." + key + " must be an integer", value);
  }
  return static_cast<int>(number);
}

/// Schema-v1 additive fields: absent in older documents (default applies),
/// but when present they must be well-formed non-negative integers — the
/// reader validates what it is given, it never guesses.
int get_node_id_or(const JsonValue& object, const std::string& key,
                   const std::string& what, int fallback) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  expect_kind(*value, JsonValue::Kind::kNumber, what + "." + key);
  if (value->number < 0 || value->number != std::floor(value->number)) {
    fail_at(what + "." + key + " must be a non-negative integer", *value);
  }
  return static_cast<int>(value->number);
}

std::uint64_t get_u64(const JsonValue& object, const std::string& key,
                      const std::string& what) {
  const JsonValue& value = require(object, key, what);
  expect_kind(value, JsonValue::Kind::kNumber, what + "." + key);
  if (value.number < 0 || value.number != std::floor(value.number)) {
    fail_at(what + "." + key + " must be a non-negative integer", value);
  }
  return static_cast<std::uint64_t>(value.number);
}

/// The enum value whose rt::to_string spelling is `text` (values 0..count-1
/// are tried), else an error naming `kind`, located at `where`.
template <typename Enum>
Enum enum_named(const std::string& text, const JsonValue& where, int count,
                const std::string& kind) {
  for (int i = 0; i < count; ++i) {
    const Enum candidate = static_cast<Enum>(i);
    if (text == rt::to_string(candidate)) return candidate;
  }
  fail_at("unknown " + kind + " \"" + text + "\"", where);
}

template <typename Enum>
Enum get_enum(const JsonValue& object, const std::string& key,
              const std::string& what, int count, const std::string& kind) {
  const JsonValue& value = require(object, key, what);
  expect_kind(value, JsonValue::Kind::kString, what + "." + key);
  return enum_named<Enum>(value.string, value, count, kind);
}

TraceWorker parse_worker(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "worker");
  TraceWorker w;
  w.id = get_int(value, "id", "worker");
  w.name = get_string(value, "name", "worker");
  w.arch = get_string(value, "arch", "worker");
  w.node = get_int(value, "node", "worker");
  w.sim_node = get_node_id_or(value, "sim_node", "worker", 0);
  w.combined = get_bool(value, "combined", "worker");
  return w;
}

rt::TaskRecord parse_task(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "task");
  rt::TaskRecord t;
  t.sequence = get_u64(value, "sequence", "task");
  t.name = get_string(value, "name", "task");
  t.impl = get_string(value, "impl", "task");
  t.arch = get_enum<rt::Arch>(value, "arch", "task", rt::kArchCount,
                              "architecture");
  t.worker = get_int(value, "worker", "task");
  t.vstart = get_number(value, "vstart", "task");
  t.vend = get_number(value, "vend", "task");
  t.exec_seconds = get_number(value, "exec", "task");
  t.attempt = get_int(value, "attempt", "task");
  t.failed = get_bool(value, "failed", "task");
  t.verify_point = get_int(value, "point", "task");
  const JsonValue& data =
      expect_kind(require(value, "data", "task"), JsonValue::Kind::kArray,
                  "task.data");
  for (const JsonValue& id : data.array) {
    expect_kind(id, JsonValue::Kind::kNumber, "task.data element");
    t.data.push_back(static_cast<std::uint64_t>(id.number));
  }
  if (t.vend < t.vstart) {
    fail_at("non-monotonic task interval (vend < vstart)", value);
  }
  return t;
}

rt::TransferRecord parse_transfer(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "transfer");
  rt::TransferRecord t;
  t.lane = get_int(value, "lane", "transfer");
  t.lane_sequence = get_u64(value, "order", "transfer");
  t.from = get_int(value, "from", "transfer");
  t.to = get_int(value, "to", "transfer");
  t.from_node = get_node_id_or(value, "from_node", "transfer", 0);
  t.to_node = get_node_id_or(value, "to_node", "transfer", 0);
  t.bytes = get_u64(value, "bytes", "transfer");
  t.vstart = get_number(value, "vstart", "transfer");
  t.vend = get_number(value, "vend", "transfer");
  t.coalesced = get_bool(value, "coalesced", "transfer");
  t.burst = get_u64(value, "burst", "transfer");
  t.data = get_u64(value, "data", "transfer");
  if (t.vend < t.vstart) {
    fail_at("non-monotonic transfer interval (vend < vstart)", value);
  }
  return t;
}

rt::PrefetchRecord parse_prefetch(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "prefetch");
  rt::PrefetchRecord p;
  p.event = get_enum<rt::PrefetchEvent>(
      value, "event", "prefetch",
      static_cast<int>(rt::PrefetchEvent::kSkipped) + 1, "prefetch event");
  p.reason = get_enum<rt::PrefetchSkipReason>(
      value, "reason", "prefetch",
      static_cast<int>(rt::PrefetchSkipReason::kShutdown) + 1,
      "prefetch skip reason");
  p.task_sequence = get_u64(value, "task", "prefetch");
  p.node = get_int(value, "node", "prefetch");
  p.sim_node = get_node_id_or(value, "sim_node", "prefetch", 0);
  p.data = get_u64(value, "data", "prefetch");
  p.bytes = get_u64(value, "bytes", "prefetch");
  return p;
}

rt::DecisionRecord parse_decision(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "decision");
  rt::DecisionRecord d;
  d.task_sequence = get_u64(value, "task", "decision");
  d.chosen = get_int(value, "worker", "decision");
  d.explored = get_bool(value, "explored", "decision");
  d.chosen_estimate = get_number(value, "estimate", "decision");
  const JsonValue& estimates =
      expect_kind(require(value, "arch_estimate", "decision"),
                  JsonValue::Kind::kObject, "decision.arch_estimate");
  // The writer omits the architectures without a candidate (+infinity is
  // not JSON).
  d.arch_estimate.fill(std::numeric_limits<double>::infinity());
  for (const auto& [arch, estimate] : estimates.object) {
    expect_kind(estimate, JsonValue::Kind::kNumber,
                "decision.arch_estimate." + arch);
    const rt::Arch named =
        enum_named<rt::Arch>(arch, estimate, rt::kArchCount, "architecture");
    d.arch_estimate[static_cast<std::size_t>(named)] = estimate.number;
  }
  return d;
}

rt::WindowRecord parse_window(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "window");
  rt::WindowRecord w;
  w.id = get_u64(value, "id", "window");
  w.size = get_int(value, "size", "window");
  if (w.size < 0) {
    fail_at("window size must be non-negative",
            require(value, "size", "window"));
  }
  w.estimate = get_number(value, "estimate", "window");
  w.improved = get_bool(value, "improved", "window");
  w.explored = get_u64(value, "explored", "window");
  const JsonValue& tasks = expect_kind(require(value, "tasks", "window"),
                                       JsonValue::Kind::kArray, "window.tasks");
  for (const JsonValue& task : tasks.array) {
    expect_kind(task, JsonValue::Kind::kNumber, "window.tasks");
    if (task.number < 0) fail_at("window task sequence is negative", task);
    w.tasks.push_back(static_cast<std::uint64_t>(task.number));
  }
  if (w.tasks.size() != static_cast<std::size_t>(w.size)) {
    fail_at("window task list does not match its size field",
            require(value, "tasks", "window"));
  }
  return w;
}

rt::PhaseRecord parse_phase(const JsonValue& value) {
  expect_kind(value, JsonValue::Kind::kObject, "phase");
  rt::PhaseRecord p;
  p.label = get_string(value, "label", "phase");
  p.vtime = get_number(value, "vtime", "phase");
  return p;
}

/// Per-lane timelines must replay in emission order: `order` strictly
/// increasing and busy intervals non-overlapping per lane.
void validate_lanes(const std::vector<rt::TransferRecord>& transfers,
                    const JsonValue& section) {
  std::map<int, const rt::TransferRecord*> last_on_lane;
  for (const rt::TransferRecord& t : transfers) {
    const auto it = last_on_lane.find(t.lane);
    if (it != last_on_lane.end()) {
      const rt::TransferRecord& prev = *it->second;
      if (t.lane_sequence <= prev.lane_sequence) {
        fail_at("non-monotonic transfer order on lane " +
                    std::to_string(t.lane),
                section);
      }
      if (t.vend < prev.vend) {
        fail_at("non-monotonic transfer timeline on lane " +
                    std::to_string(t.lane),
                section);
      }
    }
    last_on_lane[t.lane] = &t;
  }
}

}  // namespace

Trace parse_trace(const std::string& text) {
  const JsonValue root = parse_json(text);
  expect_kind(root, JsonValue::Kind::kObject, "trace document");

  // The schema tag is checked before anything else so a JSON file that is
  // simply not a trace gets one clear message, not a field-by-field tour.
  const std::string schema = get_string(root, "schema", "trace document");
  if (schema != "peppher-trace") {
    fail_at("not a peppher-trace document (schema \"" + schema + "\")",
            require(root, "schema", "trace document"));
  }
  Trace trace;
  trace.version = get_int(root, "version", "trace document");
  if (trace.version != 1) {
    fail_at("unsupported trace schema version " +
                std::to_string(trace.version) + " (reader supports 1)",
            require(root, "version", "trace document"));
  }
  trace.machine = get_string(root, "machine", "trace document");
  trace.scheduler = get_string(root, "scheduler", "trace document");
  trace.makespan = get_number(root, "makespan", "trace document");

  for (const auto& [key, value] : root.object) {
    if (key == "schema" || key == "version" || key == "machine" ||
        key == "scheduler" || key == "makespan") {
      continue;
    }
    if (key == "workers") {
      expect_kind(value, JsonValue::Kind::kArray, "workers");
      for (const JsonValue& row : value.array) {
        trace.workers.push_back(parse_worker(row));
      }
    } else if (key == "tasks") {
      expect_kind(value, JsonValue::Kind::kArray, "tasks");
      for (const JsonValue& row : value.array) {
        trace.tasks.push_back(parse_task(row));
      }
    } else if (key == "transfers") {
      expect_kind(value, JsonValue::Kind::kArray, "transfers");
      for (const JsonValue& row : value.array) {
        trace.transfers.push_back(parse_transfer(row));
      }
      validate_lanes(trace.transfers, value);
    } else if (key == "prefetches") {
      expect_kind(value, JsonValue::Kind::kArray, "prefetches");
      for (const JsonValue& row : value.array) {
        trace.prefetches.push_back(parse_prefetch(row));
      }
    } else if (key == "decisions") {
      expect_kind(value, JsonValue::Kind::kArray, "decisions");
      for (const JsonValue& row : value.array) {
        trace.decisions.push_back(parse_decision(row));
      }
    } else if (key == "windows") {
      expect_kind(value, JsonValue::Kind::kArray, "windows");
      for (const JsonValue& row : value.array) {
        trace.windows.push_back(parse_window(row));
      }
    } else if (key == "phases") {
      expect_kind(value, JsonValue::Kind::kArray, "phases");
      for (const JsonValue& row : value.array) {
        trace.phases.push_back(parse_phase(row));
      }
    } else {
      fail_at("unknown trace section \"" + key + "\"", value);
    }
  }
  return trace;
}

}  // namespace peppher::perf
