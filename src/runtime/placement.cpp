#include "runtime/placement.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "runtime/memory.hpp"
#include "runtime/msi.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Thrown out of msi::apply_acquire's walk by a failing hop.
struct HopFailed {};

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

std::size_t Interconnect::intra_lanes() const {
  return pcie.shared_bus || topo.device_count() == 0
             ? 1
             : 2 * static_cast<std::size_t>(topo.device_count());
}

std::size_t Interconnect::lane_count() const {
  const auto sims = static_cast<std::size_t>(topo.sim_node_count());
  return intra_lanes() + sims * (sims - 1);
}

std::size_t Interconnect::lane(MemoryNodeId from, MemoryNodeId to) const {
  const int from_sim = topo.sim_node(from);
  const int to_sim = topo.sim_node(to);
  if (from_sim == to_sim) {
    if (intra_lanes() == 1) return 0;  // shared bus (or no devices)
    const MemoryNodeId device = topo.is_host(from) ? to : from;
    const int ordinal = topo.device_ordinal(device);
    check(ordinal >= 0, "Interconnect::lane: bad device node");
    return 2 * static_cast<std::size_t>(ordinal) + (topo.is_host(to) ? 1 : 0);
  }
  // Inter-node hops are host to host only (route_via splits everything
  // else). Unordered pair (i, j), i < j, in lexicographic order; the i->j
  // direction gets the even lane of the pair.
  check(topo.is_host(from) && topo.is_host(to),
        "Interconnect::lane: inter-node hop must be host to host");
  const auto i = static_cast<std::size_t>(std::min(from_sim, to_sim));
  const auto j = static_cast<std::size_t>(std::max(from_sim, to_sim));
  const auto sims = static_cast<std::size_t>(topo.sim_node_count());
  const std::size_t pair = i * (2 * sims - i - 1) / 2 + (j - i - 1);
  return intra_lanes() + 2 * pair + (from_sim < to_sim ? 0 : 1);
}

const sim::LinkProfile& Interconnect::lane_link(std::size_t lane) const {
  return lane < intra_lanes() ? pcie : internode;
}

void Plan::reset(const std::vector<WorkerDesc>& workers,
                 const Interconnect* net, Objective objective) {
  workers_ = &workers;
  net_ = net;
  objective_ = objective;
  nodes_ = net != nullptr ? static_cast<std::size_t>(net->topo.node_count()) : 0;
  clocks_.assign(workers.size(), 0.0);
  lanes_.assign(net != nullptr ? net->lane_count() : 0, 0.0);
  clear_data();
  static std::atomic<std::uint64_t> resets{0};
  epoch_ = ++resets;
}

int Plan::add_data(std::span<const ReplicaState> states,
                   std::span<const double> valid_at) {
  check(states.size() >= nodes_, "Plan::add_data: too few replica states");
  states_.insert(states_.end(), states.begin(), states.begin() + nodes_);
  valid_at_.resize(states_.size(), 0.0);
  if (!valid_at.empty()) {
    std::copy_n(valid_at.begin(), nodes_, valid_at_.end() - nodes_);
  }
  return nodes_ > 0 ? static_cast<int>(states_.size() / nodes_) - 1 : 0;
}

int Plan::add_data(const DataHandle& handle) {
  std::lock_guard<std::mutex> lock(handle.mutex_);
  // Times stored before this plan's reset: the data are there at time 0.
  return add_data(handle.plan_states_,
                  handle.plan_epoch_ == epoch_
                      ? std::span<const double>(handle.plan_valid_at_)
                      : std::span<const double>());
}

void Plan::store_data(int data, DataHandle& handle) const {
  if (nodes_ == 0) return;
  std::lock_guard<std::mutex> lock(handle.mutex_);
  const std::size_t first = static_cast<std::size_t>(data) * nodes_;
  std::copy_n(states_.begin() + first, nodes_, handle.plan_states_.begin());
  std::copy_n(valid_at_.begin() + first, nodes_, handle.plan_valid_at_.begin());
  handle.plan_epoch_ = epoch_;
}

double Plan::access(int data, MemoryNodeId node, AccessMode mode,
                    std::size_t bytes, Hops* hops) {
  if (net_ == nullptr) return 0.0;
  const double ready = arrive(data, node, mode, bytes, hops);
  if (mode != AccessMode::kRead) {
    valid_slot(data)[static_cast<std::size_t>(node)] = ready;
  }
  return ready;
}

void Plan::advance_from(const Plan& from, double seconds) {
  const auto shift = [seconds](std::vector<double>& now,
                               const std::vector<double>& before) {
    for (std::size_t i = 0; i < now.size(); ++i) {
      if (now[i] != (i < before.size() ? before[i] : 0.0)) now[i] += seconds;
    }
  };
  shift(clocks_, from.clocks_);
  shift(lanes_, from.lanes_);
  shift(valid_at_, from.valid_at_);
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

double Plan::arrive(int data, MemoryNodeId node, AccessMode mode,
                    std::size_t bytes, Hops* hops, const HopFault* fails) {
  const std::span<double> valid = valid_slot(data);
  msi::apply_acquire(slot(data), node, mode, net_->topo,
                     [&](MemoryNodeId from, MemoryNodeId to) {
    if (fails != nullptr && (*fails)(from, to, bytes)) throw HopFailed{};
    const std::size_t lane = net_->lane(from, to);
    const double start =
        std::max(lanes_[lane], valid[static_cast<std::size_t>(from)]);
    const double end =
        start + sim::transfer_seconds(net_->lane_link(lane), bytes);
    lanes_[lane] = valid[static_cast<std::size_t>(to)] = end;
    if (hops != nullptr) {
      hops->push_back({data, lane, from, to, bytes, start, end});
    }
  });
  return mode == AccessMode::kWrite ? 0.0
                                    : valid[static_cast<std::size_t>(node)];
}

Plan::Commit Plan::commit(const Task& task, WorkerId worker, double exec,
                          Hops* hops, const HopFault* fails) {
  const auto w = static_cast<std::size_t>(worker);
  const MemoryNodeId node = (*workers_)[w].node;
  Commit out;
  out.start = std::max(clocks_[w], task.deps);
  std::size_t acquired = 0;
  if (net_ != nullptr) {
    try {
      for (const Operand& op : task.operands) {
        out.start = std::max(
            out.start, arrive(op.data, node, op.mode, op.bytes, hops, fails));
        ++acquired;
      }
    } catch (const HopFailed&) {
      out.failed = true;
    }
  }
  out.end = out.start + exec;
  for (std::size_t i = 0; i < acquired; ++i) {
    const Operand& op = task.operands[i];
    if (op.mode != AccessMode::kRead) {
      valid_slot(op.data)[static_cast<std::size_t>(node)] = out.end;
    }
  }
  finish(worker, out.end);
  return out;
}

void Plan::restore(const State& state) {
  clocks_ = state.clocks;
  lanes_ = state.lanes;
  states_ = state.states;
  valid_at_ = state.valid_at;
}

Plan::Window Plan::place_window(const std::vector<Task>& tasks,
                                std::uint64_t budget) {
  const std::size_t count = tasks.size();
  const State base{clocks_, lanes_, states_, valid_at_};
  const auto exec_on = [](const Task& task, WorkerId worker) {
    return task.exec[static_cast<std::size_t>(worker)];
  };

  // Greedy start: each task to its best decision in window order.
  Window best;
  for (const Task& task : tasks) {
    const WorkerId worker = place(task).worker;
    check(worker >= 0, "Plan::place_window: task has no eligible worker");
    best.workers.push_back(worker);
    const double end = commit(task, worker, exec_on(task, worker)).end;
    best.makespan = std::max(best.makespan, end);
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
    best.commits.push_back(
        commit(tasks[i], best.workers[i], exec_on(tasks[i], best.workers[i])));
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
  // Candidates by start + full fetch + exec, so the first descent is
  // near-greedy and tightens the bound early; one whose start + exec (a
  // lower bound on its committed end) reaches the incumbent is cut.
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
  // Assigned field by field: the saved vectors keep their storage.
  State& keep = saved[depth];
  keep.clocks = clocks_;
  keep.lanes = lanes_;
  keep.states = states_;
  keep.valid_at = valid_at_;
  for (const auto& [estimate, worker] : candidates) {
    const auto wi = static_cast<std::size_t>(worker);
    if (std::max(clocks_[wi], task.deps) + task.exec[wi] >= best.makespan) {
      continue;
    }
    if (++best.explored > budget) return;
    const double committed = commit(task, worker, task.exec[wi]).end;
    if (committed < best.makespan) {
      assign[depth] = worker;
      search(tasks, depth + 1, std::max(makespan, committed), assign, saved,
             best, budget);
    }
    restore(saved[depth]);
  }
}

}  // namespace peppher::rt
