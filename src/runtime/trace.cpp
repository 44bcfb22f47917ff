#include "runtime/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <type_traits>

#include "runtime/memory.hpp"
#include "runtime/task.hpp"
#include "runtime/topology.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::rt {

const char* to_string(PrefetchEvent event) {
  switch (event) {
    case PrefetchEvent::kEnqueued: return "enqueued";
    case PrefetchEvent::kCompleted: return "completed";
    case PrefetchEvent::kSkipped: return "skipped";
  }
  return "unknown";
}

const char* to_string(PrefetchSkipReason reason) {
  switch (reason) {
    case PrefetchSkipReason::kNone: return "none";
    case PrefetchSkipReason::kWriterRace: return "writer_race";
    case PrefetchSkipReason::kPartitioned: return "partitioned";
    case PrefetchSkipReason::kDetached: return "detached";
    case PrefetchSkipReason::kTransferFailed: return "transfer_failed";
    case PrefetchSkipReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Books
// ---------------------------------------------------------------------------

Books Books::since(const Books& earlier) const {
  const auto subtract = [](Tally& tally, const Tally& base) {
    for (std::size_t s = 0; s < kSlots; ++s) tally.n[s] -= base.n[s];
    tally.busy -= base.busy;
    tally.energy -= base.energy;
  };
  Books out = *this;
  for (std::size_t w = 0; w < earlier.workers_.size(); ++w) {
    subtract(out.workers_[w], earlier.workers_[w]);
  }
  subtract(out.shared_, earlier.shared_);
  return out;
}

Books::Tally Books::total() const {
  Tally sum = shared_;  // busy and energy are only ever worker-side
  for (const Tally& tally : workers_) {
    for (std::size_t s = 0; s < kSlots; ++s) sum.n[s] += tally.n[s];
    sum.busy += tally.busy;
    sum.energy += tally.energy;
  }
  return sum;
}

WorkerStats Books::worker(WorkerId id) const {
  check(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
        "worker_stats: bad worker id");
  const Tally& t = workers_[static_cast<std::size_t>(id)];
  return {.tasks_executed = t.n[kTasks],
          .failed_attempts = t.n[kFailedAttempts],
          .busy_vtime = t.busy,
          .energy_joules = t.energy};
}

std::array<std::uint64_t, kArchCount> Books::arch_tasks() const {
  const Tally t = total();
  std::array<std::uint64_t, kArchCount> counts{};
  std::copy_n(t.n.begin() + kArchTasks, kArchCount, counts.begin());
  return counts;
}

FaultStats Books::faults() const {
  const Tally t = total();
  return {.injected_kernel_faults = t.n[kInjectedKernelFaults],
          .injected_transfer_faults = t.n[kInjectedTransferFaults],
          .failed_attempts = t.n[kFailedAttempts],
          .retries = t.n[kRetries],
          .fallbacks = t.n[kFallbacks],
          .tasks_failed = t.n[kTasksFailed],
          .workers_blacklisted = t.n[kWorkersBlacklisted]};
}

TransferStats Books::transfers() const {
  const Tally t = total();
  return {.host_to_device_count = t.n[kH2dCount],
          .device_to_host_count = t.n[kD2hCount],
          .host_to_device_bytes = t.n[kH2dBytes],
          .device_to_host_bytes = t.n[kD2hBytes],
          .evictions = t.n[kEvictions],
          .overcommits = t.n[kOvercommits],
          .coalesced_transfers = t.n[kCoalesced],
          .internode_count = t.n[kInternodeCount],
          .internode_bytes = t.n[kInternodeBytes]};
}

PrefetchStats Books::prefetches() const {
  const Tally t = total();
  return {.enqueued = t.n[kPrefetchEnqueued],
          .completed = t.n[kPrefetchCompleted],
          .skipped = t.n[kPrefetchSkipped]};
}

double Books::energy_joules() const { return total().energy; }

std::uint64_t Books::shadow_checks() const { return total().n[kShadowChecks]; }

// ---------------------------------------------------------------------------
// Tracer: counters
// ---------------------------------------------------------------------------

namespace {

/// The recorder and worker shard the calling thread writes (bind_worker);
/// a thread bound to no recorder, or to another one, uses the shared shard.
thread_local const Tracer* t_recorder = nullptr;
thread_local std::size_t t_shard = 0;

/// Single-writer add: only the owning thread stores to the counter, so a
/// relaxed load and store replace the read-modify-write.
template <typename T>
void bump(std::atomic<T>& counter, std::type_identity_t<T> amount = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + amount,
                std::memory_order_relaxed);
}

}  // namespace

void Tracer::configure(const MemTopology& topo,
                       std::vector<double> worker_watts, bool trace_events) {
  topo_ = &topo;
  trace_events_ = trace_events;
  workers_.clear();
  for (const double watts : worker_watts) {
    workers_.push_back(std::make_unique<Shard>());
    workers_.back()->watts = watts;
  }
}

void Tracer::bind_worker(WorkerId id) {
  check(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
        "bind_worker: bad worker id");
  t_recorder = this;
  t_shard = static_cast<std::size_t>(id);
}

void Tracer::add(std::size_t slot, std::uint64_t amount) {
  if (t_recorder == this) {
    bump(workers_[t_shard]->n[slot], amount);
  } else {
    shared_.n[slot].fetch_add(amount, std::memory_order_relaxed);
  }
}

void Tracer::count(Counted event) { add(static_cast<std::size_t>(event)); }

Books Tracer::books() const {
  const auto read = [](const Shard& shard) {
    Books::Tally tally;
    for (std::size_t s = 0; s < Books::kSlots; ++s) {
      tally.n[s] = shard.n[s].load(std::memory_order_relaxed);
    }
    tally.busy = shard.busy.load(std::memory_order_relaxed);
    tally.energy = shard.energy.load(std::memory_order_relaxed);
    return tally;
  };
  Books books;
  books.workers_.reserve(workers_.size());
  for (const auto& shard : workers_) books.workers_.push_back(read(*shard));
  books.shared_ = read(shared_);
  return books;
}

// ---------------------------------------------------------------------------
// Tracer: event sites
// ---------------------------------------------------------------------------

void Tracer::record_task(const std::shared_ptr<Task>& task,
                         const Implementation* impl, int attempt,
                         bool injected_fault, bool retried) {
  const bool failed = task->failed();
  const WorkerId worker = task->executed_on;
  Shard& shard = *workers_[static_cast<std::size_t>(worker)];
  if (failed) {
    bump(shard.n[Books::kFailedAttempts]);
    if (injected_fault) bump(shard.n[Books::kInjectedKernelFaults]);
    if (retried) bump(shard.n[Books::kRetries]);
  } else {
    bump(shard.n[Books::kTasks]);
    bump(shard.n[Books::kArchTasks + static_cast<std::size_t>(impl->arch)]);
  }
  bump(shard.busy, task->exec_seconds);
  bump(shard.energy, task->exec_seconds * shard.watts);
  if (!trace_events_) return;

  // Snapshot the per-attempt numerics now (a retry overwrites them on the
  // task). The common case captures the name and operand ids inline too —
  // a short-string copy plus a few stores, no allocation, no refcount
  // traffic, and the task can die the moment it completes. Long names or
  // wide operand lists fall back to keeping the TaskPtr and resolving the
  // strings/ids when a snapshot is taken.
  const TaskSpec& spec = task->spec;
  const std::size_t operand_count = spec.operands.size();
  const bool slim =
      spec.name.size() <= kInlineName && operand_count <= kInlineOperands;
  tasks_.emplace_with([&](TaskEventSlot& slot) {
    slot.record.worker = worker;
    slot.record.vstart = task->vstart;
    slot.record.vend = task->vend;
    slot.record.attempt = attempt;
    slot.record.failed = failed;
    slot.record.exec_seconds = task->exec_seconds;
    slot.impl = impl;
    if (!slim) {
      slot.task = task;
      return;
    }
    slot.slim = true;
    slot.record.sequence = task->sequence;
    slot.record.name = spec.name;  // fits the in-situ buffer: no alloc
    slot.record.verify_point = spec.verify_point;
    for (std::size_t i = 0; i < operand_count; ++i) {
      slot.inline_data[i] = spec.operands[i].handle->id();
    }
    slot.inline_count = static_cast<std::uint8_t>(operand_count);
  });
}

void Tracer::record_transfer(int lane, std::uint64_t lane_sequence,
                             MemoryNodeId from, MemoryNodeId to,
                             std::uint64_t bytes, VirtualTime vstart,
                             VirtualTime vend, bool coalesced,
                             std::uint64_t burst, std::uint64_t data) {
  const int from_node = topo_->sim_node(from);
  const int to_node = topo_->sim_node(to);
  const bool from_host = topo_->is_host(from);
  const bool to_host = topo_->is_host(to);
  if (from_node != to_node) {
    add(Books::kInternodeCount);
    add(Books::kInternodeBytes, bytes);
  } else if (from_host && !to_host) {
    add(Books::kH2dCount);
    add(Books::kH2dBytes, bytes);
  } else if (!from_host && to_host) {
    add(Books::kD2hCount);
    add(Books::kD2hBytes, bytes);
  }
  if (coalesced) add(Books::kCoalesced);
  if (!trace_events_) return;
  transfers_.emplace_with([&](TransferRecord& record) {
    record = {.lane = lane, .lane_sequence = lane_sequence, .from = from,
              .to = to, .bytes = bytes, .vstart = vstart, .vend = vend,
              .coalesced = coalesced, .burst = burst, .data = data,
              .from_node = from_node, .to_node = to_node};
  });
}

void Tracer::record_prefetch(PrefetchEvent event, PrefetchSkipReason reason,
                             std::uint64_t task_sequence,
                             const DataHandle& handle, MemoryNodeId node) {
  add(Books::kPrefetchEnqueued + static_cast<std::size_t>(event));
  if (!trace_events_) return;
  prefetches_.emplace_with([&](PrefetchRecord& record) {
    record = {.event = event, .reason = reason, .task_sequence = task_sequence,
              .node = node, .sim_node = topo_->sim_node(node),
              .data = handle.id(), .bytes = handle.bytes()};
  });
}

void Tracer::record_decision(std::uint64_t task_sequence, WorkerId chosen,
                             const DecisionRecord& decision) {
  if (!trace_events_) return;
  decisions_.emplace_with([&](DecisionRecord& slot) {
    slot = decision;
    slot.task_sequence = task_sequence;
    slot.chosen = chosen;
  });
}

void Tracer::record(TaskRecord record) {
  tasks_.emplace_with(
      [&](TaskEventSlot& slot) { slot.record = std::move(record); });
}

void Tracer::record_window(const WindowRecord& record) {
  if (!trace_events_) return;
  windows_.emplace_with([&](WindowRecord& slot) { slot = record; });
}

void Tracer::record_phase(std::string label, VirtualTime vtime) {
  if (!trace_events_) return;
  phases_.emplace_with([&](PhaseRecord& record) {
    record = {.label = std::move(label), .vtime = vtime};
  });
}

TaskRecord Tracer::materialize(const TaskEventSlot& slot) {
  TaskRecord record = slot.record;
  if (slot.slim) {
    record.data.assign(slot.inline_data.begin(),
                       slot.inline_data.begin() + slot.inline_count);
  } else if (slot.task != nullptr) {
    const Task& task = *slot.task;
    record.sequence = task.sequence;
    record.name = task.spec.name;
    record.verify_point = task.spec.verify_point;
    record.data.reserve(task.spec.operands.size());
    for (const TaskOperand& operand : task.spec.operands) {
      record.data.push_back(operand.handle->id());
    }
  }
  if (slot.impl != nullptr) {
    record.impl = slot.impl->name;
    record.arch = slot.impl->arch;
  }
  return record;
}

std::vector<TaskRecord> Tracer::records() const {
  std::vector<TaskRecord> out;
  for (const TaskEventSlot& slot : tasks_.snapshot()) {
    out.push_back(materialize(slot));
  }
  return out;
}

std::vector<TransferRecord> Tracer::transfers() const {
  return transfers_.snapshot();
}

std::vector<PrefetchRecord> Tracer::prefetches() const {
  return prefetches_.snapshot();
}

std::vector<DecisionRecord> Tracer::decisions() const {
  return decisions_.snapshot();
}

std::vector<WindowRecord> Tracer::windows() const {
  return windows_.snapshot();
}

std::vector<PhaseRecord> Tracer::phases() const { return phases_.snapshot(); }

void Tracer::clear() {
  tasks_.clear();
  transfers_.clear();
  prefetches_.clear();
  decisions_.clear();
  windows_.clear();
  phases_.clear();
}

std::size_t Tracer::size() const { return tasks_.size(); }

std::string Tracer::to_chrome_json() const {
  std::vector<TaskRecord> snapshot = records();
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TaskRecord& a, const TaskRecord& b) {
                     if (a.sequence != b.sequence) return a.sequence < b.sequence;
                     return a.attempt < b.attempt;
                   });
  std::vector<TransferRecord> moves = transfers();
  std::stable_sort(moves.begin(), moves.end(),
                   [](const TransferRecord& a, const TransferRecord& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.lane_sequence < b.lane_sequence;
                   });
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "[\n";
  bool first = true;
  for (const TaskRecord& r : snapshot) {
    if (!first) out << ",\n";
    first = false;
    // "X" = complete event; ts/dur in microseconds.
    out << "  {\"name\": \"" << strings::replace_all(r.name, "\"", "'")
        << "\", \"cat\": \"" << to_string(r.arch)
        << "\", \"ph\": \"X\", \"ts\": " << r.vstart * 1e6
        << ", \"dur\": " << (r.vend - r.vstart) * 1e6
        << ", \"pid\": 1, \"tid\": " << r.worker << ", \"args\": {\"impl\": \""
        << strings::replace_all(r.impl, "\"", "'") << "\", \"sequence\": "
        << r.sequence << ", \"attempt\": " << r.attempt << ", \"failed\": "
        << (r.failed ? "true" : "false") << "}}";
  }
  for (const TransferRecord& t : moves) {
    if (!first) out << ",\n";
    first = false;
    // Transfers render as their own process (pid 2), one row per link lane.
    // Inter-node hops ("n2n") are distinguished from the PCIe directions;
    // on a single host from_node == to_node always and the labels are the
    // historical ones.
    out << "  {\"name\": \""
        << (t.from_node != t.to_node ? "n2n"
                                     : (t.to == kHostNode ? "d2h" : "h2d"))
        << "\", \"cat\": \"transfer\", \"ph\": \"X\", \"ts\": "
        << t.vstart * 1e6 << ", \"dur\": " << (t.vend - t.vstart) * 1e6
        << ", \"pid\": 2, \"tid\": " << t.lane << ", \"args\": {\"from\": "
        << t.from << ", \"to\": " << t.to << ", \"bytes\": " << t.bytes
        << ", \"coalesced\": " << (t.coalesced ? "true" : "false")
        << ", \"burst\": " << t.burst << ", \"data\": " << t.data
        << ", \"order\": " << t.lane_sequence << "}}";
  }
  out << "\n]\n";
  return std::move(out).str();
}

std::string Tracer::to_text_gantt(int columns) const {
  const std::vector<TaskRecord> snapshot = records();
  if (snapshot.empty() || columns <= 0) return "";
  double makespan = 0.0;
  std::map<WorkerId, std::string> rows;
  for (const TaskRecord& r : snapshot) {
    makespan = std::max(makespan, r.vend);
    rows.emplace(r.worker, std::string());
  }
  if (makespan <= 0.0) return "";
  for (auto& [worker, row] : rows) {
    row.assign(static_cast<std::size_t>(columns), '.');
  }
  for (const TaskRecord& r : snapshot) {
    std::string& row = rows[r.worker];
    const auto col = [&](double t) {
      return std::min<std::size_t>(
          static_cast<std::size_t>(columns) - 1,
          static_cast<std::size_t>(t / makespan * columns));
    };
    const char mark = r.failed ? 'x' : (r.name.empty() ? '#' : r.name[0]);
    for (std::size_t c = col(r.vstart); c <= col(r.vend); ++c) row[c] = mark;
  }
  std::ostringstream out;
  out << "virtual makespan: " << makespan << " s\n";
  for (const auto& [worker, row] : rows) {
    out << "worker " << worker << " |" << row << "|\n";
  }
  return std::move(out).str();
}

}  // namespace peppher::rt
