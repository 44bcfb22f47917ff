#include "analyze/predict.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "analyze/cfg.hpp"
#include "runtime/msi.hpp"
#include "support/error.hpp"

namespace peppher::analyze {

namespace {

using diag::Severity;

constexpr int kDefaultMaxSteps = 100000;

/// Iterations of a <loop> kept for the repeat search (see eval_loop).
constexpr std::size_t kLoopRepeatCap = 64;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-container abstract state of the walk: the verifier's MSI world-set
/// (every feasible history: the interval and the diagnostics), the
/// container's datum in the trajectory's plan, and the trajectory times its
/// last write and its latest read since then complete.
struct ContainerState {
  Worlds worlds{World{}};
  int data = -1;
  double avail = 0.0;     ///< end of the last write (or of a prefetch)
  double read_end = 0.0;  ///< latest end of a read since then (>= avail)
  std::size_t bytes = 0;
};

/// Numeric accumulator of one program point; doubles throughout so loop
/// extrapolation can scale every field uniformly.
struct PointAccum {
  double executions = 0.0;
  double exec_seconds = 0.0;
  double transfer_seconds = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  rt::Arch chosen = rt::Arch::kCpu;
  EstimateSource source = EstimateSource::kGuess;
  bool low_confidence = false;
};

/// The full mutable state of the abstract interpretation: the trajectory's
/// plan (per-worker clocks, per-container replica states), the containers
/// and the additive accumulators.
struct WalkState {
  explicit WalkState(rt::Plan trajectory) : plan(std::move(trajectory)) {}

  rt::Plan plan;
  double makespan_lo = 0.0;  ///< sum of best-case per-point work
  double makespan_hi = 0.0;  ///< sum of worst-case per-point work
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  double host_exec = 0.0;
  double device_exec = 0.0;
  double transfer_time = 0.0;
  double executions = 0.0;
  std::map<std::string, ContainerState> containers;
  std::vector<PointAccum> points;

  /// Moves this state — `from` repeated `delta` seconds later — `times`
  /// repeats on: every clock, lane and container time the repeat moved goes
  /// `times` shifts later, every accumulator grows `times` repeats.
  void repeat(const WalkState& from, double times, double delta) {
    const auto shift = [&](double& field, double before) {
      if (field != before) field += times * delta;
    };
    const auto grow = [times](double& field, double before) {
      field += (field - before) * times;
    };
    plan.advance_from(from.plan, times * delta);
    for (auto& [name, cs] : containers) {
      const ContainerState& before = from.containers.at(name);
      shift(cs.avail, before.avail);
      shift(cs.read_end, before.read_end);
    }
    grow(makespan_lo, from.makespan_lo);
    grow(makespan_hi, from.makespan_hi);
    grow(h2d_bytes, from.h2d_bytes);
    grow(d2h_bytes, from.d2h_bytes);
    grow(host_exec, from.host_exec);
    grow(device_exec, from.device_exec);
    grow(transfer_time, from.transfer_time);
    grow(executions, from.executions);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointAccum& before = from.points[i];
      grow(points[i].executions, before.executions);
      grow(points[i].exec_seconds, before.exec_seconds);
      grow(points[i].transfer_seconds, before.transfer_seconds);
      grow(points[i].lo, before.lo);
      grow(points[i].hi, before.hi);
    }
  }
};

/// One container a call binds, with every access the call makes to it.
struct Binding {
  std::string data;
  std::vector<Access> accesses;
  std::size_t bytes = 0;
  bool reads = false;
  bool writes = false;
};

/// What a loop body touches: per call its bindings, the architectures of
/// its calls' variants and every container it binds or moves.
struct LoopShape {
  std::vector<std::vector<Binding>> calls;
  std::set<rt::Arch> archs;
  std::set<std::string> data;
};

/// True when y - x is `delta`, up to round-off.
bool shifted(double x, double y, double delta) {
  return std::abs((y - x) - delta) <=
         1e-9 * std::max({std::abs(x), std::abs(y), 1e-9});
}

class Predictor {
 public:
  Predictor(const desc::Repository& repo, const rt::PerfRegistry& models,
            const PredictOptions& options)
      : repo_(repo),
        options_(options),
        eval_(options.machine, models, options.calibration_min),
        cluster_(sim::ClusterConfig::single(options.machine)),
        workers_(rt::worker_table(cluster_)),
        net_{rt::MemTopology::of_cluster(cluster_), options.machine.link,
             cluster_.internode},
        max_steps_(options.max_steps > 0 ? options.max_steps
                                         : kDefaultMaxSteps),
        state_(rt::Plan(workers_, &net_)) {}

  PredictResult run() {
    PredictResult result;
    const desc::MainDescriptor* main = repo_.main_module();
    if (main == nullptr || (main->call_tree.empty() && main->calls.empty())) {
      return result;
    }

    main_ = main;
    tree_ = statement_tree(*main);

    // Flatten the tree in document order (loop bodies and both <if>
    // branches once) so every call statement owns one point accumulator.
    index_calls(tree_);
    index_reads(tree_, 1.0);
    state_.points.assign(flat_calls_.size(), PointAccum{});
    report_dead_variants();
    eval_block(tree_, state_);
    finalize(result);
    return result;
  }

 private:
  std::size_t size_of(const std::string& data) const {
    const auto it = options_.sizes.find(data);
    return it != options_.sizes.end() ? it->second : options_.default_bytes;
  }

  /// Charges one statement evaluation against the budget; false once the
  /// budget is exhausted (the walk unwinds and PL077 is reported).
  bool charge_step() {
    if (!exhausted_ && ++steps_ > max_steps_) exhausted_ = true;
    return !exhausted_;
  }

  /// Architectures of the interface's variants that narrowing keeps.
  std::set<rt::Arch> variant_archs(const std::string& iface) const {
    std::set<rt::Arch> archs;
    for (const desc::ImplementationDescriptor* impl :
         repo_.implementations_of(iface)) {
      if (impl_disabled(*impl, repo_, options_.lint)) continue;
      try {
        archs.insert(impl->arch());
      } catch (const Error&) {
        continue;  // PL010's problem
      }
    }
    return archs;
  }

  bool machine_runs(rt::Arch arch) const {
    return std::any_of(workers_.begin(), workers_.end(),
                       [arch](const rt::WorkerDesc& w) {
                         return w.archs.front() == arch;
                       });
  }

  int side_of(const rt::WorkerDesc& worker) const {
    return net_.topo.is_host(worker.node) ? kHostSide : kDeviceSide;
  }

  void index_calls(const std::vector<desc::CallNode>& block) {
    for (const desc::CallNode& node : block) {
      switch (node.kind) {
        case desc::CallNode::Kind::kCall:
          call_index_[&node] = static_cast<int>(flat_calls_.size());
          flat_calls_.push_back(&node);
          break;
        case desc::CallNode::Kind::kLoop:
          index_calls(node.body);
          break;
        case desc::CallNode::Kind::kIf:
          index_calls(node.body);
          index_calls(node.else_body);
          break;
        default:
          break;
      }
    }
  }

  /// Total read-only executions per container across the whole program
  /// (loop bodies weighted by their trip count, both <if> branches
  /// counted): the static counterpart of the reads a runtime handle counts
  /// (its kRead acquires), which a placement decision amortises a read
  /// operand's fetch volume over.
  void index_reads(const std::vector<desc::CallNode>& block, double weight) {
    for (const desc::CallNode& node : block) {
      switch (node.kind) {
        case desc::CallNode::Kind::kCall: {
          std::set<std::string> seen;
          for (const desc::CallArgDesc& arg : node.call.args) {
            if (arg.data.empty() || !seen.insert(arg.data).second) continue;
            for (const Access& access : call_accesses(repo_, node.call, arg.data)) {
              if (access.mode == rt::AccessMode::kRead) {
                read_weight_[arg.data] += weight;
                break;
              }
            }
          }
          break;
        }
        case desc::CallNode::Kind::kLoop:
          index_reads(node.body,
                      weight * static_cast<double>(std::max(node.loop_count, 1)));
          break;
        case desc::CallNode::Kind::kIf:
          index_reads(node.body, weight);
          index_reads(node.else_body, weight);
          break;
        default:
          break;
      }
    }
  }

  // -- diagnostics ----------------------------------------------------------

  /// PL070: a variant whose architecture no worker of the analysed machine
  /// runs can never be selected, on any reachable path.
  void report_dead_variants() {
    std::set<std::string> called;
    for (const desc::CallNode* node : flat_calls_) {
      called.insert(node->call.interface_name);
    }
    for (const std::string& name : called) {
      for (const desc::ImplementationDescriptor* impl :
           repo_.implementations_of(name)) {
        if (impl_disabled(*impl, repo_, options_.lint)) continue;
        rt::Arch arch;
        try {
          arch = impl->arch();
        } catch (const Error&) {
          continue;  // PL010's problem
        }
        if (machine_runs(arch)) continue;
        bag_.add("PL070", Severity::kWarning,
                 "implementation '" + impl->name + "' of interface '" + name +
                     "' targets " + rt::to_string(arch) + ", which machine '" +
                     options_.machine.name +
                     "' does not provide — the variant is dead on every "
                     "reachable path",
                 impl->loc);
      }
    }
  }

  void report_model_quality(const std::string& iface, rt::Arch arch,
                            const CostEvaluator::Exec& exec,
                            const diag::SourceLocation& loc) {
    if (!model_reported_.insert({iface, static_cast<int>(arch)}).second) {
      return;
    }
    if (exec.source == EstimateSource::kGuess) {
      bag_.add("PL071", Severity::kWarning,
               "no execution-history model for component '" + iface + "' on " +
                   rt::to_string(arch) +
                   " — the prediction falls back to a neutral 1 ms guess; "
                   "record models (peppher-perf --record ... --models-out) "
                   "and pass them via --models",
               loc);
    } else if (exec.low_confidence) {
      bag_.add("PL072", Severity::kNote,
               "low-confidence estimate for component '" + iface + "' on " +
                   rt::to_string(arch) + " (" +
                   std::string(to_string(exec.source)) +
                   "): the analysed size lies outside the observed range or "
                   "the cross-validated fit error is high",
               loc);
    }
  }

  // -- statement evaluation -------------------------------------------------

  void eval_block(const std::vector<desc::CallNode>& block, WalkState& s) {
    for (const desc::CallNode& node : block) {
      if (exhausted_) return;
      switch (node.kind) {
        case desc::CallNode::Kind::kCall:
          eval_call(node, s);
          break;
        case desc::CallNode::Kind::kPartition:
        case desc::CallNode::Kind::kUnpartition:
        // The distributed forms gather/scatter through the hosts; the cost
        // model stays single-node (the distributed verifier owns the n2n
        // semantics), so they cost one step and flush to the host like a
        // classic (un)partition, which the engine commits as a readwrite
        // host access.
        case desc::CallNode::Kind::kPartitioned:
        case desc::CallNode::Kind::kRepartition:
        case desc::CallNode::Kind::kGather: {
          if (!charge_step()) return;
          ContainerState& cs = container(s, node.data);
          Worlds next;
          for (World w : cs.worlds) {
            rt::msi::apply_host_reclaim(w.state);
            next.insert(std::move(w));
          }
          cs.worlds = std::move(next);
          rt::Plan::Hops hops;
          s.plan.access(cs.data, rt::kHostNode, rt::AccessMode::kReadWrite,
                        cs.bytes, &hops);
          charge(hops, s);
          break;
        }
        case desc::CallNode::Kind::kExchange:
          // Ghost refresh between host-resident slices: no device-visible
          // state change in the single-node cost model.
          if (!charge_step()) return;
          break;
        case desc::CallNode::Kind::kPrefetch:
          eval_prefetch(node, s);
          break;
        case desc::CallNode::Kind::kLoop:
          eval_loop(node, s);
          break;
        case desc::CallNode::Kind::kIf:
          eval_if(node, s);
          break;
      }
    }
  }

  /// The container's state; a first use starts it valid on the primary
  /// host only, like a freshly registered handle.
  ContainerState& container(WalkState& s, const std::string& data) {
    const auto [it, fresh] = s.containers.try_emplace(data);
    ContainerState& cs = it->second;
    if (fresh) {
      cs.bytes = size_of(data);
      std::vector<rt::ReplicaState> states(
          static_cast<std::size_t>(net_.topo.node_count()),
          rt::ReplicaState::kInvalid);
      states[rt::kHostNode] = rt::ReplicaState::kOwned;
      cs.data = s.plan.add_data(std::move(states));
    }
    return cs;
  }

  /// The interval's worst case pays a hop whenever some world lacks the
  /// replica; the trajectory copies only when the plan's state lacks it,
  /// on the lanes as the engine commits an explicit prefetch: the copy
  /// starts when its lane and its source allow, and a consumer on that
  /// node starts once it lands.
  void eval_prefetch(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    ContainerState& cs = container(s, node.data);
    const int side = node.prefetch_to_device ? kDeviceSide : kHostSide;
    if (std::any_of(cs.worlds.begin(), cs.worlds.end(), [&](const World& w) {
          return !replica_valid(w.state[side]);
        })) {
      s.makespan_hi += rt::hop_seconds(options_.machine.link, cs.bytes, 1.0);
    }
    Worlds next;
    for (World w : cs.worlds) {
      rt::msi::apply_acquire(w.state, side, rt::AccessMode::kRead);
      next.insert(std::move(w));
    }
    cs.worlds = std::move(next);

    if (node.prefetch_to_device && net_.topo.device_count() == 0) return;
    rt::Plan::Hops hops;
    s.plan.access(
        cs.data,
        node.prefetch_to_device ? net_.topo.device_node(0) : rt::kHostNode,
        rt::AccessMode::kRead, cs.bytes, &hops);
    charge(hops, s);
  }

  /// Adds `hops` to the trajectory's transfer time and bytes (d2h when
  /// they land on a host); returns their seconds.
  double charge(const rt::Plan::Hops& hops, WalkState& s) const {
    double seconds = 0.0;
    for (const rt::Plan::Hop& hop : hops) {
      seconds += hop.end - hop.start;
      (net_.topo.is_host(hop.to) ? s.d2h_bytes : s.h2d_bytes) +=
          static_cast<double>(hop.bytes);
    }
    s.transfer_time += seconds;
    return seconds;
  }

  /// The containers `call` binds, each once.
  std::vector<Binding> bindings_of(const desc::CallDesc& call) const {
    std::vector<Binding> bindings;
    std::set<std::string> seen;
    for (const desc::CallArgDesc& arg : call.args) {
      if (arg.data.empty() || !seen.insert(arg.data).second) continue;
      Binding binding;
      binding.data = arg.data;
      binding.accesses = call_accesses(repo_, call, arg.data);
      if (binding.accesses.empty()) continue;
      binding.bytes = size_of(arg.data);
      for (const Access& access : binding.accesses) {
        binding.reads |= mode_reads(access.mode);
        binding.writes |= mode_writes(access.mode);
      }
      bindings.push_back(std::move(binding));
    }
    return bindings;
  }

  void eval_call(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    const desc::InterfaceDescriptor* iface =
        repo_.find_interface(node.call.interface_name);
    if (iface == nullptr) return;  // PL034's problem
    const std::vector<Binding> bindings = bindings_of(node.call);

    // Operand footprint exactly as the runtime computes it: interface
    // parameter order, one byte count per operand parameter.
    std::vector<std::size_t> operand_bytes;
    std::size_t total_bytes = 0;
    for (const desc::ParamDesc& p : iface->params) {
      if (!p.is_operand()) continue;
      std::size_t bytes = options_.default_bytes;
      for (const desc::CallArgDesc& arg : node.call.args) {
        if (arg.param == p.name) {
          bytes = size_of(arg.data);
          break;
        }
      }
      operand_bytes.push_back(bytes);
      total_bytes += bytes;
    }
    const std::uint64_t footprint = rt::footprint_of(operand_bytes);

    // The call as the plan prices it: per worker the estimate of the
    // variant it would run (+inf where none), its predecessors' end and
    // its operands.
    const std::set<rt::Arch> archs = variant_archs(iface->name);
    std::map<rt::Arch, CostEvaluator::Exec> execs;
    rt::Plan::Task task;
    task.exec.assign(workers_.size(), kInf);
    for (const rt::WorkerDesc& w : workers_) {
      const rt::Arch arch = w.archs.front();
      if (archs.count(arch) == 0) continue;
      const auto [it, fresh] = execs.try_emplace(arch);
      if (fresh) {
        it->second =
            eval_.exec_seconds(iface->name, arch, footprint, total_bytes);
        report_model_quality(iface->name, arch, it->second, node.loc);
      }
      task.exec[static_cast<std::size_t>(w.id)] = it->second.seconds;
    }
    if (execs.empty()) return;  // PL011's (or PL070's) problem
    for (const Binding& binding : bindings) {
      const ContainerState& cs = container(s, binding.data);
      // A write also waits for the reads since the last write.
      task.deps = std::max(task.deps, binding.writes ? cs.read_end : cs.avail);
      // A read-only binding amortises its fetch over the container's total
      // reads, like the runtime's handle; a binding that writes pays once.
      const auto reads = read_weight_.find(binding.data);
      task.operands.push_back(
          {cs.data,
           binding.writes ? (binding.reads ? rt::AccessMode::kReadWrite
                                           : rt::AccessMode::kWrite)
                          : rt::AccessMode::kRead,
           binding.bytes,
           binding.writes || reads == read_weight_.end() ? 1.0
                                                          : reads->second});
    }

    // Interval: best feasible pure work (transfers fully overlapped) to
    // worst feasible work including every transfer some world demands.
    double possible[2] = {0.0, 0.0};
    for (const int side : {kHostSide, kDeviceSide}) {
      for (const Binding& binding : bindings) {
        if (!binding.reads) continue;  // write mode never fetches
        const Worlds& worlds = container(s, binding.data).worlds;
        if (std::any_of(worlds.begin(), worlds.end(), [&](const World& w) {
              return !replica_valid(w.state[side]);
            })) {
          possible[side] +=
              rt::hop_seconds(options_.machine.link, binding.bytes, 1.0);
        }
      }
    }
    double lo_point = kInf;
    double hi_point = 0.0;
    // PL075 bookkeeping: the best decision work (fetch + exec, wait-free —
    // what the placement weighs) per side.
    double best_work[2] = {kInf, kInf};
    for (const rt::WorkerDesc& w : workers_) {
      const double exec = task.exec[static_cast<std::size_t>(w.id)];
      if (exec == kInf) continue;
      const int side = side_of(w);
      lo_point = std::min(lo_point, exec);
      hi_point = std::max(hi_point, possible[side] + exec);
      best_work[side] =
          std::min(best_work[side], s.plan.price(task, w.id).work);
    }
    s.makespan_lo += lo_point;
    s.makespan_hi += hi_point;
    if (best_work[kHostSide] < kInf && best_work[kDeviceSide] < kInf) {
      Profit& profit = profit_[iface->name];
      if (!profit.seen) {
        profit.seen = true;
        profit.loc = node.loc;
      }
      profit.device_better |= best_work[kDeviceSide] < best_work[kHostSide];
    }

    // The trajectory: the plan's placement (dmda's choice), committed.
    const rt::WorkerId chosen = s.plan.place(task).worker;
    rt::Plan::Hops hops;
    const rt::Plan::Commit done = s.plan.commit(
        task, chosen, task.exec[static_cast<std::size_t>(chosen)], &hops);
    const double fetch = charge(hops, s);
    const rt::WorkerDesc& worker = workers_[static_cast<std::size_t>(chosen)];
    const int side = side_of(worker);
    const CostEvaluator::Exec& exec = execs.at(worker.archs.front());
    (side == kHostSide ? s.host_exec : s.device_exec) += exec.seconds;
    s.executions += 1.0;

    for (const Binding& binding : bindings) {
      ContainerState& cs = container(s, binding.data);
      Worlds next;
      for (const World& w : cs.worlds) {
        World updated = w;
        for (const Access& access : binding.accesses) {
          rt::msi::apply_acquire(updated.state, side, access.mode);
        }
        next.insert(std::move(updated));
      }
      cs.worlds = std::move(next);
      if (binding.writes) {
        cs.avail = cs.read_end = done.end;
      } else {
        cs.read_end = std::max(cs.read_end, done.end);
      }
    }

    const auto index_it = call_index_.find(&node);
    if (index_it != call_index_.end() &&
        static_cast<std::size_t>(index_it->second) < s.points.size()) {
      PointAccum& point = s.points[static_cast<std::size_t>(index_it->second)];
      point.executions += 1.0;
      point.exec_seconds += exec.seconds;
      point.transfer_seconds += fetch;
      point.lo += lo_point;
      point.hi += hi_point;
      point.chosen = worker.archs.front();
      point.source = exec.source;
      point.low_confidence |= exec.low_confidence;
    }

    report_capacity(node, s);
  }

  /// PL074: total bytes the schedule keeps valid on the accelerator side
  /// against the smallest accelerator's capacity.
  void report_capacity(const desc::CallNode& node, WalkState& s) {
    if (capacity_reported_) return;
    const std::size_t capacity = eval_.device_capacity_bytes();
    if (capacity == 0) return;
    std::size_t resident = 0;
    for (const auto& [name, cs] : s.containers) {
      (void)name;
      const bool device_valid = std::any_of(
          cs.worlds.begin(), cs.worlds.end(), [](const World& w) {
            return replica_valid(w.state[kDeviceSide]);
          });
      if (device_valid) resident += cs.bytes;
    }
    if (resident <= capacity) return;
    capacity_reported_ = true;
    bag_.add("PL074", Severity::kError,
             "predicted device-capacity overflow: " + std::to_string(resident) +
                 " bytes are kept resident on the accelerator here, but the "
                 "smallest accelerator of machine '" + options_.machine.name +
                 "' holds " + std::to_string(capacity) +
                 " bytes — partition the data or evict between phases",
             node.loc);
  }

  void collect_shape(const std::vector<desc::CallNode>& block,
                     LoopShape& shape) const {
    for (const desc::CallNode& node : block) {
      if (node.kind == desc::CallNode::Kind::kLoop ||
          node.kind == desc::CallNode::Kind::kIf) {
        collect_shape(node.body, shape);
        collect_shape(node.else_body, shape);
      } else if (node.kind != desc::CallNode::Kind::kCall) {
        if (!node.data.empty()) shape.data.insert(node.data);
      } else {
        const std::set<rt::Arch> archs = variant_archs(node.call.interface_name);
        shape.archs.insert(archs.begin(), archs.end());
        for (const Binding& binding :
             shape.calls.emplace_back(bindings_of(node.call))) {
          shape.data.insert(binding.data);
        }
      }
    }
  }

  /// The shift by which `b` repeats `a` for the loop body, if it does: the
  /// same replica states and world-sets, and every clock of a worker the
  /// body can run on and every time its calls wait for moved uniformly
  /// later. Times nothing waits for are lifted first: a clock below every
  /// body call's predecessors' end to that bound, a container time below
  /// every such clock to the earliest of them.
  std::optional<double> repeat_shift(const WalkState& a, const WalkState& b,
                                     const LoopShape& shape) const {
    if (a.containers.size() != b.containers.size()) return std::nullopt;
    const auto start_floor = [&](const WalkState& st) {
      double floor = kInf;
      for (const auto& bindings : shape.calls) {
        double deps = 0.0;
        for (const Binding& binding : bindings) {
          const auto it = st.containers.find(binding.data);
          if (it == st.containers.end()) continue;
          deps = std::max(deps, binding.writes ? it->second.read_end
                                               : it->second.avail);
        }
        floor = std::min(floor, deps);
      }
      return floor;
    };
    const double floor_a = start_floor(a);
    const double floor_b = start_floor(b);
    std::optional<double> delta;
    const auto moved = [&delta](double x, double y) {
      if (!delta) delta = y - x;
      return shifted(x, y, *delta);
    };
    double low_a = kInf;
    double low_b = kInf;
    for (const rt::WorkerDesc& w : workers_) {
      if (shape.archs.count(w.archs.front()) == 0) continue;
      const double x = std::max(a.plan.clock(w.id), floor_a);
      const double y = std::max(b.plan.clock(w.id), floor_b);
      if (!moved(x, y)) return std::nullopt;
      low_a = std::min(low_a, x);
      low_b = std::min(low_b, y);
    }
    if (!delta) return std::nullopt;
    for (const std::string& name : shape.data) {
      const auto ia = a.containers.find(name);
      const auto ib = b.containers.find(name);
      if (ia == a.containers.end() || ib == b.containers.end()) {
        return std::nullopt;
      }
      const ContainerState& ca = ia->second;
      const ContainerState& cb = ib->second;
      if (ca.worlds != cb.worlds ||
          !std::ranges::equal(a.plan.states(ca.data), b.plan.states(cb.data)) ||
          !moved(std::max(ca.avail, low_a), std::max(cb.avail, low_b)) ||
          !moved(std::max(ca.read_end, low_a), std::max(cb.read_end, low_b))) {
        return std::nullopt;
      }
    }
    return delta;
  }

  /// The kept state the body's workers moved on from most uniformly per
  /// iteration — the nearest to a repeat of `seen`'s last — and the mean
  /// shift of their clocks since it. The workers counted are those of the
  /// body's architectures that ran any of the kept iterations.
  std::pair<std::size_t, double> nearest_repeat(
      const std::vector<WalkState>& seen, const LoopShape& shape) const {
    const WalkState& now = seen.back();
    std::vector<rt::WorkerId> active;
    for (const rt::WorkerDesc& w : workers_) {
      if (shape.archs.count(w.archs.front()) != 0 &&
          now.plan.clock(w.id) != seen.front().plan.clock(w.id)) {
        active.push_back(w.id);
      }
    }
    if (active.empty()) return {0, 0.0};
    std::size_t best = 0;
    double best_spread = kInf;
    double best_shift = 0.0;
    for (std::size_t j = 0; j + 1 < seen.size(); ++j) {
      double lo = kInf;
      double hi = -kInf;
      double sum = 0.0;
      for (const rt::WorkerId w : active) {
        const double shift = now.plan.clock(w) - seen[j].plan.clock(w);
        lo = std::min(lo, shift);
        hi = std::max(hi, shift);
        sum += shift;
      }
      const double spread = (hi - lo) / static_cast<double>(seen.size() - 1 - j);
      if (spread < best_spread) {
        best = j;
        best_spread = spread;
        best_shift = sum / static_cast<double>(active.size());
      }
    }
    return {best, best_shift};
  }

  /// A loop runs its body concretely until the state repeats a state it
  /// reached after an earlier iteration (repeat_shift) — for example after
  /// one rotation of its calls over the workers — and then skips as many
  /// whole repeats as the trip count holds. The search keeps the first
  /// kLoopRepeatCap iterations. A loop that has not repeated by then (its
  /// workers' times share no period that short) takes its nearest repeat
  /// instead: whole copies of that stretch are skipped, every clock it
  /// moved shifted by the mean shift of the body's workers over it. The
  /// iterations left over run concretely.
  void eval_loop(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    const long long count = std::max(node.loop_count, 1);
    LoopShape shape;
    collect_shape(node.body, shape);
    std::vector<WalkState> seen{s};  // seen[i]: the state after i iterations
    std::size_t from = 0;
    std::size_t period = 0;
    for (long long done = 0; done < count;) {
      eval_block(node.body, s);
      if (exhausted_) return;
      ++done;
      if (period > 0) continue;
      seen.push_back(s);
      std::optional<double> delta;
      for (std::size_t j = seen.size() - 1; j-- > 0 && !delta;) {
        delta = repeat_shift(seen[j], s, shape);
        from = j;
      }
      if (!delta && seen.size() > kLoopRepeatCap) {
        std::tie(from, delta) = nearest_repeat(seen, shape);
      }
      if (!delta) continue;
      period = seen.size() - 1 - from;
      const long long repeats = (count - done) / static_cast<long long>(period);
      if (repeats > 0) {
        s.repeat(seen[from], static_cast<double>(repeats), *delta);
        done += repeats * static_cast<long long>(period);
      }
    }
    // PL073 judges the repeating period, else the last iteration kept.
    if (count < 2) return;
    if (period == 0) {
      from = seen.size() - 2;
      period = 1;
    }
    report_transfer_bound(node, seen[from], seen[from + period],
                          static_cast<double>(period));
  }

  /// PL073: the steady-state iteration is transfer-bound — the coherence
  /// states force at least as much link time as compute time, every trip.
  void report_transfer_bound(const desc::CallNode& node,
                             const WalkState& before, const WalkState& after,
                             double iterations) {
    const double transfer =
        (after.transfer_time - before.transfer_time) / iterations;
    const double exec = ((after.host_exec + after.device_exec) -
                         (before.host_exec + before.device_exec)) /
                        iterations;
    if (transfer <= 0.0 || transfer < exec ||
        !transfer_bound_reported_.insert(&node).second) {
      return;
    }
    const double h2d = (after.h2d_bytes - before.h2d_bytes) / iterations;
    const double d2h = (after.d2h_bytes - before.d2h_bytes) / iterations;
    std::ostringstream msg;
    msg << "statically transfer-bound loop: every steady-state iteration "
           "moves "
        << static_cast<std::uint64_t>(h2d) << " bytes H2D and "
        << static_cast<std::uint64_t>(d2h) << " bytes D2H (" << transfer
        << " s on the link) against " << exec
        << " s of compute — keep the data resident on one side or provide "
           "a same-side variant for the consumer";
    bag_.add("PL073", Severity::kWarning, std::move(msg).str(), node.loc);
  }

  void eval_if(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    const WalkState before = s;
    WalkState then_state = s;
    eval_block(node.body, then_state);
    WalkState else_state = s;
    if (!node.else_body.empty()) eval_block(node.else_body, else_state);
    if (exhausted_) {
      s = std::move(then_state);
      return;
    }
    // The trajectory takes the pessimistic branch (the verifier's all-paths
    // stance); the interval hulls both, and the world-sets join (union) so
    // later transfers stay forced only where *every* path demands one.
    const bool then_slower =
        then_state.plan.makespan() >= else_state.plan.makespan();
    WalkState& winner = then_slower ? then_state : else_state;
    WalkState& loser = then_slower ? else_state : then_state;
    winner.makespan_lo =
        before.makespan_lo + std::min(then_state.makespan_lo - before.makespan_lo,
                                      else_state.makespan_lo - before.makespan_lo);
    winner.makespan_hi =
        before.makespan_hi + std::max(then_state.makespan_hi - before.makespan_hi,
                                      else_state.makespan_hi - before.makespan_hi);
    for (const auto& [name, other] : loser.containers) {
      const auto [it, fresh] = winner.containers.try_emplace(name, other);
      ContainerState& mine = it->second;
      if (fresh) {
        mine.data = winner.plan.add_data(loser.plan.states(other.data));
        continue;
      }
      mine.worlds.insert(other.worlds.begin(), other.worlds.end());
      mine.avail = std::max(mine.avail, other.avail);
      mine.read_end = std::max(mine.read_end, other.read_end);
      mine.bytes = std::max(mine.bytes, other.bytes);
    }
    s = std::move(winner);
  }

  void finalize(PredictResult& result) {
    if (exhausted_) {
      result.completed = false;
      bag_.add("PL077", Severity::kError,
               "static cost interpreter exhausted its statement budget (" +
                   std::to_string(max_steps_) +
                   " evaluations) before reaching the program end — raise "
                   "--max-steps or simplify the <calls> section",
               main_->loc);
    }
    for (const auto& [name, profit] : profit_) {
      if (profit.seen && !profit.device_better) {
        bag_.add("PL075", Severity::kNote,
                 "the accelerator variant of component '" + name +
                     "' is predicted unprofitable at the analysed sizes: "
                     "the host is faster at every call once forced "
                     "transfers are charged",
                 profit.loc);
      }
    }

    const double est = state_.plan.makespan();
    result.makespan.est = est;
    result.makespan.lo = std::min(state_.makespan_lo, est);
    result.makespan.hi = std::max(state_.makespan_hi, est);
    result.host_exec_seconds = state_.host_exec;
    result.device_exec_seconds = state_.device_exec;
    result.transfer_time_seconds = state_.transfer_time;
    result.h2d_bytes = state_.h2d_bytes;
    result.d2h_bytes = state_.d2h_bytes;
    result.task_executions =
        static_cast<std::uint64_t>(std::llround(state_.executions));

    for (std::size_t i = 0; i < state_.points.size(); ++i) {
      const PointAccum& accum = state_.points[i];
      if (accum.executions <= 0.0) continue;
      PointCost point;
      point.call_index = static_cast<int>(i);
      point.interface_name = flat_calls_[i]->call.interface_name;
      point.loc = flat_calls_[i]->loc;
      point.chosen = accum.chosen;
      point.source = accum.source;
      point.low_confidence = accum.low_confidence;
      point.executions =
          static_cast<std::uint64_t>(std::llround(accum.executions));
      point.exec_seconds = accum.exec_seconds;
      point.transfer_seconds = accum.transfer_seconds;
      point.total = {accum.lo, accum.transfer_seconds + accum.exec_seconds,
                     accum.hi};
      result.points.push_back(std::move(point));
    }

    result.bag = std::move(bag_);
    result.bag.sort();
  }

  struct Profit {
    bool seen = false;
    bool device_better = false;
    diag::SourceLocation loc;
  };

  const desc::Repository& repo_;
  const PredictOptions& options_;
  CostEvaluator eval_;
  const sim::ClusterConfig cluster_;  ///< the analysed machine as one node
  const std::vector<rt::WorkerDesc> workers_;  ///< rt::worker_table(cluster_)
  const rt::Interconnect net_;
  const int max_steps_;
  const desc::MainDescriptor* main_ = nullptr;
  std::vector<desc::CallNode> tree_;  ///< the statements the walk evaluates
  WalkState state_;
  diag::DiagnosticBag bag_;
  int steps_ = 0;
  bool exhausted_ = false;
  bool capacity_reported_ = false;
  std::set<std::pair<std::string, int>> model_reported_;
  std::set<const desc::CallNode*> transfer_bound_reported_;
  std::map<std::string, Profit> profit_;
  std::map<const desc::CallNode*, int> call_index_;
  std::map<std::string, double> read_weight_;
  std::vector<const desc::CallNode*> flat_calls_;
};

std::string format_bytes(double bytes) {
  std::ostringstream out;
  if (bytes >= 1024.0 * 1024.0) {
    out << bytes / (1024.0 * 1024.0) << " MiB";
  } else if (bytes >= 1024.0) {
    out << bytes / 1024.0 << " KiB";
  } else {
    out << bytes << " B";
  }
  return std::move(out).str();
}

}  // namespace

std::string PredictResult::report_text() const {
  std::ostringstream out;
  out.precision(6);
  out << "predicted makespan: " << makespan.est << " s  [" << makespan.lo
      << ", " << makespan.hi << "]\n";
  out << "  host exec " << host_exec_seconds << " s, accelerator exec "
      << device_exec_seconds << " s, transfers " << transfer_time_seconds
      << " s\n";
  out << "  H2D " << format_bytes(h2d_bytes) << ", D2H "
      << format_bytes(d2h_bytes) << ", " << task_executions
      << " task execution(s)\n";
  if (!points.empty()) {
    out << "  per-point costs:\n";
    for (const PointCost& p : points) {
      out << "    #" << (p.call_index + 1) << " " << p.interface_name << " ["
          << rt::to_string(p.chosen) << ", " << to_string(p.source)
          << (p.low_confidence ? ", low-confidence" : "") << "] x"
          << p.executions << ": exec " << p.exec_seconds << " s, transfer "
          << p.transfer_seconds << " s, total " << p.total.est << " s ["
          << p.total.lo << ", " << p.total.hi << "]\n";
    }
  }
  return std::move(out).str();
}

std::string PredictResult::report_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"schema\":\"peppher-predict-v1\",\"completed\":"
      << (completed ? "true" : "false") << ",\"makespan\":{\"lo\":"
      << makespan.lo << ",\"est\":" << makespan.est << ",\"hi\":" << makespan.hi
      << "},\"host_exec_seconds\":" << host_exec_seconds
      << ",\"device_exec_seconds\":" << device_exec_seconds
      << ",\"transfer_seconds\":" << transfer_time_seconds
      << ",\"h2d_bytes\":" << h2d_bytes << ",\"d2h_bytes\":" << d2h_bytes
      << ",\"task_executions\":" << task_executions << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointCost& p = points[i];
    if (i > 0) out << ',';
    out << "{\"call\":" << (p.call_index + 1) << ",\"interface\":\""
        << diag::json_escape(p.interface_name) << "\",\"arch\":\""
        << rt::to_string(p.chosen) << "\",\"source\":\"" << to_string(p.source)
        << "\",\"low_confidence\":" << (p.low_confidence ? "true" : "false")
        << ",\"executions\":" << p.executions
        << ",\"exec_seconds\":" << p.exec_seconds
        << ",\"transfer_seconds\":" << p.transfer_seconds
        << ",\"lo\":" << p.total.lo << ",\"est\":" << p.total.est
        << ",\"hi\":" << p.total.hi << "}";
  }
  out << "]}";
  return std::move(out).str();
}

PredictResult predict_main(const desc::Repository& repo,
                           const rt::PerfRegistry& models,
                           const PredictOptions& options) {
  Predictor predictor(repo, models, options);
  return predictor.run();
}

std::string WhatIfResult::report_text() const {
  std::ostringstream out;
  out.precision(6);
  out << "what-if: target " << target_tasks_per_second << " tasks/s\n";
  out << "  single-device makespan " << base.makespan.est << " s ("
      << base.task_executions << " task execution(s); host "
      << base.host_exec_seconds << " s + transfers "
      << base.transfer_time_seconds << " s fixed, accelerator "
      << base.device_exec_seconds << " s scalable)\n";
  for (std::size_t i = 0; i < makespans.size(); ++i) {
    out << "  " << (i + 1) << " device(s): makespan " << makespans[i]
        << " s\n";
  }
  if (min_devices > 0) {
    out << "  => " << min_devices << " device(s) reach "
        << achieved_tasks_per_second << " tasks/s\n";
  } else {
    out << "  => unreachable within " << max_devices << " device(s) (best "
        << achieved_tasks_per_second << " tasks/s)\n";
  }
  return std::move(out).str();
}

WhatIfResult whatif(const desc::Repository& repo,
                    const rt::PerfRegistry& models,
                    const PredictOptions& options,
                    double target_tasks_per_second, int max_devices) {
  WhatIfResult out;
  out.target_tasks_per_second = target_tasks_per_second;
  out.max_devices = std::max(max_devices, 1);
  out.base = predict_main(repo, models, options);

  // Amdahl decomposition of the serialized makespan: host work and link
  // transfers do not scale with the accelerator count, the accelerator-side
  // work divides across k devices.
  const double fixed =
      out.base.host_exec_seconds + out.base.transfer_time_seconds;
  const double device = out.base.device_exec_seconds;
  const double tasks = static_cast<double>(out.base.task_executions);

  for (int k = 1; k <= out.max_devices; ++k) {
    const double makespan = fixed + device / static_cast<double>(k);
    out.makespans.push_back(makespan);
    const double throughput = makespan > 0.0 ? tasks / makespan : 0.0;
    if (throughput >= target_tasks_per_second) {
      out.min_devices = k;
      out.achieved_tasks_per_second = throughput;
      break;
    }
    out.achieved_tasks_per_second = throughput;
  }
  if (out.min_devices < 0) {
    std::ostringstream msg;
    msg.precision(6);
    msg << "throughput target unreachable: " << target_tasks_per_second
        << " tasks/s requested, but even " << out.max_devices
        << " accelerator(s) reach only " << out.achieved_tasks_per_second
        << " tasks/s — the host-side and transfer share of the makespan ("
        << fixed << " s) dominates (Amdahl bound)";
    out.bag.add("PL076", Severity::kWarning, std::move(msg).str());
  }
  return out;
}

rt::DispatchTable export_dispatch(const PredictResult& result,
                                  const std::string& machine) {
  rt::DispatchTable table;
  table.set_machine(machine);
  for (const PointCost& point : result.points) {
    // Footprint 0 = any footprint: static sizes are configured bindings,
    // not the runtime's exact operand-hash footprints, so only the
    // program-point dimension carries over. The vote weight is the point's
    // predicted execution count, mirroring how a training run would vote.
    table.train(point.interface_name, 0, point.call_index, point.chosen,
                std::max<std::uint64_t>(1, point.executions));
  }
  table.finalize();
  return table;
}

}  // namespace peppher::analyze
