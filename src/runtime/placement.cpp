#include "runtime/placement.hpp"

#include <algorithm>
#include <utility>

#include "runtime/memory.hpp"
#include "runtime/msi.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Arch accelerator_arch(const sim::DeviceProfile& profile) {
  return profile.device_class == sim::DeviceClass::kOpenClGpu ? Arch::kOpenCl
                                                              : Arch::kCuda;
}

}  // namespace

double reuse_divisor(double reads) noexcept {
  return reads > 1.0 ? std::min(reads, static_cast<double>(kReuseCap)) : 1.0;
}

double hop_seconds(const sim::LinkProfile& link, std::size_t bytes,
                   double reuse) noexcept {
  const double latency = sim::transfer_seconds(link, 0);
  return latency + (sim::transfer_seconds(link, bytes) - latency) / reuse;
}

std::vector<WorkerDesc> worker_table(const sim::ClusterConfig& cluster) {
  const MemTopology topo = MemTopology::of_cluster(cluster);
  std::vector<WorkerDesc> table;
  int ordinal = 0;
  for (int k = 0; k < static_cast<int>(cluster.nodes.size()); ++k) {
    const sim::MachineConfig& machine = cluster.nodes[k].machine;
    check(machine.cpu_cores >= 0, "negative CPU core count");
    const auto add = [&](Arch arch, MemoryNodeId node,
                         const sim::DeviceProfile& profile, bool combined) {
      WorkerDesc desc;
      desc.id = static_cast<WorkerId>(table.size());
      desc.archs = {arch};
      desc.node = node;
      desc.sim_node = k;
      desc.profile = profile;
      desc.is_combined_cpu = combined;
      table.push_back(std::move(desc));
    };
    for (int c = 0; c < machine.cpu_cores; ++c) {
      add(Arch::kCpu, topo.host_of(k), machine.cpu_core, false);
    }
    if (machine.cpu_cores > 0) {
      add(Arch::kCpuOmp, topo.host_of(k),
          sim::combined_cpu_profile(machine.cpu_core, machine.cpu_cores), true);
    }
    for (const sim::DeviceProfile& device : machine.accelerators) {
      add(accelerator_arch(device), topo.device_node(ordinal++), device, false);
    }
  }
  return table;
}

double Interconnect::fetch_seconds(MemoryNodeId source, MemoryNodeId dest,
                                   std::size_t bytes, double reuse) const {
  double total = 0.0;
  for (MemoryNodeId cur = source >= 0 ? source : kHostNode; cur != dest;) {
    const MemoryNodeId next = topo.next_hop(cur, dest);
    const bool crosses_nodes = topo.sim_node(cur) != topo.sim_node(next);
    total += hop_seconds(crosses_nodes ? internode : pcie, bytes, reuse);
    cur = next;
  }
  return total;
}

double Interconnect::fetch_seconds(std::span<const ReplicaState> states,
                                   MemoryNodeId dest, std::size_t bytes,
                                   double reuse) const {
  const auto valid = [&](MemoryNodeId n) {
    return states[static_cast<std::size_t>(n)] != ReplicaState::kInvalid;
  };
  if (valid(dest)) return 0.0;
  return fetch_seconds(topo.nearest_valid(dest, valid), dest, bytes, reuse);
}

void Plan::reset(const std::vector<WorkerDesc>& workers,
                 const Interconnect* net, Objective objective) {
  workers_ = &workers;
  net_ = net;
  objective_ = objective;
  nodes_ = net != nullptr ? static_cast<std::size_t>(net->topo.node_count()) : 0;
  clocks_.assign(workers.size(), 0.0);
  states_.clear();
}

int Plan::add_data(std::span<const ReplicaState> states) {
  check(states.size() >= nodes_, "Plan::add_data: too few replica states");
  states_.insert(states_.end(), states.begin(), states.begin() + nodes_);
  return nodes_ > 0 ? static_cast<int>(states_.size() / nodes_) - 1 : 0;
}

int Plan::add_data(const DataHandle& handle) {
  if (nodes_ > 0) handle.plan_states(states_);
  return nodes_ > 0 ? static_cast<int>(states_.size() / nodes_) - 1 : 0;
}

double Plan::fetch(int data, MemoryNodeId node, std::size_t bytes) {
  if (net_ == nullptr) return 0.0;
  const std::span<ReplicaState> states = slot(data);
  const double seconds = net_->fetch_seconds(states, node, bytes, 1.0);
  msi::apply_acquire(states, node, AccessMode::kRead, net_->topo);
  return seconds;
}

void Plan::reclaim(int data) {
  if (net_ != nullptr) msi::apply_host_reclaim(slot(data));
}

double Plan::makespan() const {
  double latest = 0.0;
  for (const double clock : clocks_) latest = std::max(latest, clock);
  return latest;
}

double Plan::fetch_seconds(const Task& task, WorkerId worker,
                           bool decision) const {
  if (net_ == nullptr) return 0.0;
  const MemoryNodeId node = (*workers_)[static_cast<std::size_t>(worker)].node;
  double seconds = 0.0;
  for (const Operand& op : task.operands) {
    if (op.mode == AccessMode::kWrite) continue;
    const bool amortised = decision && op.mode == AccessMode::kRead;
    seconds += net_->fetch_seconds(states(op.data), node, op.bytes,
                                   amortised ? reuse_divisor(op.reuse) : 1.0);
  }
  return seconds;
}

Plan::Choice Plan::price(const Task& task, WorkerId worker) const {
  Choice choice;
  const auto w = static_cast<std::size_t>(worker);
  if (task.exec[w] == kInf) return choice;
  choice.worker = worker;
  choice.start = std::max(clocks_[w], task.deps);
  choice.fetch = fetch_seconds(task, worker, /*decision=*/true);
  choice.exec = task.exec[w];
  choice.work = choice.fetch + choice.exec;
  choice.score = objective_ == Objective::kEnergy
                     ? choice.exec * (*workers_)[w].profile.busy_watts +
                           choice.fetch * kLinkWatts
                     : choice.start + choice.work;
  return choice;
}

Plan::Choice Plan::place(const Task& task) const {
  Choice best;
  for (const WorkerDesc& w : *workers_) {
    const Choice choice = price(task, w.id);
    if (!choice.eligible()) continue;
    // Equal scores (equal joules under kEnergy) go to the earlier end.
    if (choice.score < best.score ||
        (choice.score == best.score &&
         choice.start + choice.work < best.start + best.work)) {
      best = choice;
    }
  }
  return best;
}

void Plan::finish(WorkerId worker, double end) {
  const WorkerDesc& desc = (*workers_)[static_cast<std::size_t>(worker)];
  clocks_[static_cast<std::size_t>(worker)] = end;
  // The workers sharing this worker's cores: a combined-CPU worker's
  // per-core workers, and a per-core worker's combined-CPU worker.
  for (const WorkerDesc& other : *workers_) {
    if (other.node == desc.node &&
        other.is_combined_cpu != desc.is_combined_cpu) {
      double& clock = clocks_[static_cast<std::size_t>(other.id)];
      clock = std::max(clock, end);
    }
  }
}

double Plan::book(WorkerId worker, double deps, double work) {
  const double start = std::max(clock(worker), deps);
  finish(worker, start + work);
  return start;
}

Plan::Commit Plan::commit(const Task& task, WorkerId worker) {
  const auto w = static_cast<std::size_t>(worker);
  const MemoryNodeId node = (*workers_)[w].node;
  Commit out;
  out.start = std::max(clocks_[w], task.deps);
  out.work = price(task, worker).work;
  for (const Operand& op : task.operands) {
    if (net_ == nullptr) break;
    const std::span<ReplicaState> states = slot(op.data);
    if (op.mode != AccessMode::kWrite &&
        states[static_cast<std::size_t>(node)] == ReplicaState::kInvalid) {
      out.fetch += net_->fetch_seconds(states, node, op.bytes, 1.0);
      out.fetched_bytes += op.bytes;
    }
    msi::apply_acquire(states, node, op.mode, net_->topo);
  }
  out.end = out.start + out.fetch + task.exec[w];
  finish(worker, out.end);
  return out;
}

void Plan::restore(const State& state) {
  clocks_ = state.clocks;
  states_ = state.states;
}

Plan::Window Plan::place_window(const std::vector<Task>& tasks,
                                std::uint64_t budget) {
  const std::size_t count = tasks.size();
  const State base{clocks_, states_};

  // Greedy start: each task to its best decision in window order.
  Window best;
  for (const Task& task : tasks) {
    const WorkerId worker = place(task).worker;
    check(worker >= 0, "Plan::place_window: task has no eligible worker");
    best.workers.push_back(worker);
    best.makespan = std::max(best.makespan, commit(task, worker).end);
  }

  // Branch and bound over assignments in window order: a partial plan whose
  // makespan already reaches the incumbent cannot improve (ends only grow),
  // so it is cut.
  if (count > 1) {
    restore(base);
    std::vector<WorkerId> assign(count, -1);
    std::vector<State> saved(count);
    search(tasks, 0, 0.0, assign, saved, best, budget);
  }

  // Replay the winner: the plan ends in its state.
  restore(base);
  for (std::size_t i = 0; i < count; ++i) {
    best.commits.push_back(commit(tasks[i], best.workers[i]));
  }
  return best;
}

void Plan::search(const std::vector<Task>& tasks, std::size_t depth,
                  double makespan, std::vector<WorkerId>& assign,
                  std::vector<State>& saved, Window& best,
                  std::uint64_t budget) {
  if (depth == tasks.size()) {
    if (makespan < best.makespan) {
      best.makespan = makespan;
      best.workers = assign;
      best.improved = true;
    }
    return;
  }
  if (best.explored >= budget) return;
  const Task& task = tasks[depth];
  // Candidates cheapest committed end first, so the first descent is
  // near-greedy and tightens the bound early.
  std::vector<std::pair<double, WorkerId>> candidates;
  for (const WorkerDesc& w : *workers_) {
    const auto wi = static_cast<std::size_t>(w.id);
    if (task.exec[wi] == kInf) continue;
    candidates.emplace_back(std::max(clocks_[wi], task.deps) +
                                fetch_seconds(task, w.id, false) +
                                task.exec[wi],
                            w.id);
  }
  std::sort(candidates.begin(), candidates.end());
  saved[depth].clocks = clocks_;
  saved[depth].states = states_;
  for (const auto& [end, worker] : candidates) {
    if (end >= best.makespan) break;  // sorted: the rest are no better
    if (++best.explored > budget) return;
    const double committed = commit(task, worker).end;
    assign[depth] = worker;
    search(tasks, depth + 1, std::max(makespan, committed), assign, saved,
           best, budget);
    restore(saved[depth]);
  }
}

}  // namespace peppher::rt
