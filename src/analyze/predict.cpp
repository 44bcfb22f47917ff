#include "analyze/predict.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "analyze/cfg.hpp"
#include "runtime/msi.hpp"
#include "support/error.hpp"

namespace peppher::analyze {

namespace {

using diag::Severity;

constexpr int kDefaultMaxSteps = 100000;

/// Per-container abstract state of the walk: the verifier's MSI world-set
/// plus the trajectory time its last write completes.
struct ContainerState {
  Worlds worlds{World{}};
  double avail = 0.0;
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

/// The full mutable state of the abstract interpretation. Loops evaluate
/// their body twice (cold + steady) and then extrapolate the remaining
/// iterations linearly: state' = state + (state - previous) * factor.
struct WalkState {
  double clock[2] = {0.0, 0.0};  ///< per-side ready time (trajectory)
  double makespan_lo = 0.0;      ///< sum of best-case per-point work
  double makespan_hi = 0.0;      ///< sum of worst-case per-point work
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  double host_exec = 0.0;
  double device_exec = 0.0;
  double transfer_time = 0.0;
  double executions = 0.0;
  std::map<std::string, ContainerState> containers;
  std::vector<PointAccum> points;

  void extrapolate_from(const WalkState& prev, double factor) {
    auto ext = [factor](double& field, double before) {
      field += (field - before) * factor;
    };
    ext(clock[0], prev.clock[0]);
    ext(clock[1], prev.clock[1]);
    ext(makespan_lo, prev.makespan_lo);
    ext(makespan_hi, prev.makespan_hi);
    ext(h2d_bytes, prev.h2d_bytes);
    ext(d2h_bytes, prev.d2h_bytes);
    ext(host_exec, prev.host_exec);
    ext(device_exec, prev.device_exec);
    ext(transfer_time, prev.transfer_time);
    ext(executions, prev.executions);
    for (auto& [name, cs] : containers) {
      const auto it = prev.containers.find(name);
      if (it != prev.containers.end()) ext(cs.avail, it->second.avail);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointAccum& before = prev.points[i];
      ext(points[i].executions, before.executions);
      ext(points[i].exec_seconds, before.exec_seconds);
      ext(points[i].transfer_seconds, before.transfer_seconds);
      ext(points[i].lo, before.lo);
      ext(points[i].hi, before.hi);
    }
  }
};

/// One feasible (architecture, cost) candidate of a call.
struct ArchCost {
  rt::Arch arch = rt::Arch::kCpu;
  int side = kHostSide;
  double forced_transfer = 0.0;    ///< every world demands these hops
  double decision_transfer = 0.0;  ///< forced hops, reuse-amortised (placement)
  double possible_transfer = 0.0;  ///< some world demands these hops
  double forced_h2d = 0.0;
  double forced_d2h = 0.0;
  CostEvaluator::Exec exec;
  double completion = 0.0;
};

class Predictor {
 public:
  Predictor(const desc::Repository& repo, const rt::PerfRegistry& models,
            const PredictOptions& options)
      : repo_(repo),
        options_(options),
        eval_(options.machine, models, options.calibration_min),
        max_steps_(options.max_steps > 0 ? options.max_steps
                                         : kDefaultMaxSteps) {}

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
  /// (its kRead acquires), which the placement cost amortises a read
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

  /// PL070: a variant whose architecture the analysed machine does not
  /// provide can never be selected, on any reachable path.
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
        if (eval_.arch_on_machine(arch)) continue;
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
        // semantics), so they cost one step and reclaim to the host like a
        // classic (un)partition.
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

  ContainerState& container(WalkState& s, const std::string& data) {
    ContainerState& cs = s.containers[data];
    cs.bytes = size_of(data);
    return cs;
  }

  void eval_prefetch(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    ContainerState& cs = container(s, node.data);
    const int side = node.prefetch_to_device ? kDeviceSide : kHostSide;
    const bool all_invalid =
        std::all_of(cs.worlds.begin(), cs.worlds.end(), [&](const World& w) {
          return !replica_valid(w.state[side]);
        });
    const bool any_invalid =
        std::any_of(cs.worlds.begin(), cs.worlds.end(), [&](const World& w) {
          return !replica_valid(w.state[side]);
        });
    const double tt = eval_.transfer_seconds(cs.bytes);
    if (all_invalid) {
      const double start = std::max(s.clock[side], cs.avail);
      s.clock[side] = start + tt;
      s.transfer_time += tt;
      (side == kDeviceSide ? s.h2d_bytes : s.d2h_bytes) +=
          static_cast<double>(cs.bytes);
    }
    if (any_invalid) s.makespan_hi += tt;
    Worlds next;
    for (World w : cs.worlds) {
      rt::msi::apply_acquire(w.state, side, rt::AccessMode::kRead);
      next.insert(std::move(w));
    }
    cs.worlds = std::move(next);
  }

  void eval_call(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    const desc::InterfaceDescriptor* iface =
        repo_.find_interface(node.call.interface_name);
    if (iface == nullptr) return;  // PL034's problem

    // Unique container bindings of this call.
    struct Binding {
      std::string data;
      std::vector<Access> accesses;
      std::size_t bytes = 0;
      bool reads = false;
      bool writes = false;
    };
    std::vector<Binding> bindings;
    std::set<std::string> seen;
    for (const desc::CallArgDesc& arg : node.call.args) {
      if (arg.data.empty() || !seen.insert(arg.data).second) continue;
      Binding binding;
      binding.data = arg.data;
      binding.accesses = call_accesses(repo_, node.call, arg.data);
      if (binding.accesses.empty()) continue;
      binding.bytes = size_of(arg.data);
      for (const Access& access : binding.accesses) {
        binding.reads |= mode_reads(access.mode);
        binding.writes |= mode_writes(access.mode);
      }
      bindings.push_back(std::move(binding));
    }

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

    // Feasible architectures on the analysed machine.
    std::set<rt::Arch> archs;
    for (const desc::ImplementationDescriptor* impl :
         repo_.implementations_of(iface->name)) {
      if (impl_disabled(*impl, repo_, options_.lint)) continue;
      try {
        const rt::Arch arch = impl->arch();
        if (eval_.arch_on_machine(arch)) archs.insert(arch);
      } catch (const Error&) {
        continue;
      }
    }
    if (archs.empty()) return;  // PL011's problem

    double deps = 0.0;
    for (const Binding& binding : bindings) {
      deps = std::max(deps, container(s, binding.data).avail);
    }

    std::vector<ArchCost> candidates;
    for (const rt::Arch arch : archs) {
      ArchCost c;
      c.arch = arch;
      c.side = CostEvaluator::side_of(arch);
      for (const Binding& binding : bindings) {
        if (!binding.reads) continue;  // write mode never fetches
        const ContainerState& cs = container(s, binding.data);
        const bool all_invalid = std::all_of(
            cs.worlds.begin(), cs.worlds.end(),
            [&](const World& w) { return !replica_valid(w.state[c.side]); });
        const bool any_invalid = std::any_of(
            cs.worlds.begin(), cs.worlds.end(),
            [&](const World& w) { return !replica_valid(w.state[c.side]); });
        const double tt = eval_.transfer_seconds(binding.bytes);
        if (all_invalid) {
          // The placement decision prices the hop like the runtime does: a
          // read-only binding amortises it over the container's total
          // reads, a binding that writes pays it once. The trajectory pays
          // every hop in full.
          const auto reads = read_weight_.find(binding.data);
          c.forced_transfer += tt;
          c.decision_transfer += eval_.fetch_seconds(
              binding.bytes, binding.writes || reads == read_weight_.end()
                                 ? 1.0
                                 : reads->second);
          (c.side == kDeviceSide ? c.forced_h2d : c.forced_d2h) +=
              static_cast<double>(binding.bytes);
        }
        if (any_invalid) c.possible_transfer += tt;
      }
      c.exec = eval_.exec_seconds(iface->name, arch, footprint, total_bytes);
      c.completion = rt::end_time(s.clock[c.side], deps, c.decision_transfer,
                                  c.exec.seconds);
      report_model_quality(iface->name, arch, c.exec, node.loc);
      candidates.push_back(c);
    }

    // Greedy dmda-like placement: minimal predicted completion (with the
    // runtime's reuse-amortised fetch estimate); ties break toward the
    // lower-numbered architecture (host cores first), matching the
    // engine's worker iteration order.
    const ArchCost* chosen = &candidates.front();
    for (const ArchCost& c : candidates) {
      if (c.completion < chosen->completion) chosen = &c;
    }

    // Interval: best feasible pure work (transfers fully overlapped) to
    // worst feasible work including every possible transfer.
    double lo_point = candidates.front().exec.seconds;
    double hi_point = 0.0;
    for (const ArchCost& c : candidates) {
      lo_point = std::min(lo_point, c.exec.seconds);
      hi_point = std::max(hi_point, c.possible_transfer + c.exec.seconds);
    }
    s.makespan_lo += lo_point;
    s.makespan_hi += hi_point;

    // PL075 profitability bookkeeping (amortised transfer + exec,
    // wait-free — the same per-call work dmda's decision weighs).
    {
      double host_best = -1.0, device_best = -1.0;
      for (const ArchCost& c : candidates) {
        const double work = c.decision_transfer + c.exec.seconds;
        double& best = c.side == kHostSide ? host_best : device_best;
        if (best < 0.0 || work < best) best = work;
      }
      if (host_best >= 0.0 && device_best >= 0.0) {
        Profit& profit = profit_[iface->name];
        if (!profit.seen) {
          profit.seen = true;
          profit.loc = node.loc;
        }
        profit.device_better |= device_best < host_best;
      }
    }

    // Commit the trajectory. The placement decision amortised reusable
    // fetches, but the run pays each forced transfer once, in full.
    s.clock[chosen->side] =
        rt::end_time(s.clock[chosen->side], deps, chosen->forced_transfer,
                     chosen->exec.seconds);
    s.transfer_time += chosen->forced_transfer;
    (chosen->side == kHostSide ? s.host_exec : s.device_exec) +=
        chosen->exec.seconds;
    s.h2d_bytes += chosen->forced_h2d;
    s.d2h_bytes += chosen->forced_d2h;
    s.executions += 1.0;

    for (const Binding& binding : bindings) {
      ContainerState& cs = container(s, binding.data);
      Worlds next;
      for (const World& w : cs.worlds) {
        World updated = w;
        for (const Access& access : binding.accesses) {
          rt::msi::apply_acquire(updated.state, chosen->side, access.mode);
        }
        next.insert(std::move(updated));
      }
      cs.worlds = std::move(next);
      if (binding.writes) cs.avail = s.clock[chosen->side];
    }

    const auto index_it = call_index_.find(&node);
    if (index_it != call_index_.end() &&
        static_cast<std::size_t>(index_it->second) < s.points.size()) {
      PointAccum& point = s.points[static_cast<std::size_t>(index_it->second)];
      point.executions += 1.0;
      point.exec_seconds += chosen->exec.seconds;
      point.transfer_seconds += chosen->forced_transfer;
      point.lo += lo_point;
      point.hi += hi_point;
      point.chosen = chosen->arch;
      point.source = chosen->exec.source;
      point.low_confidence |= chosen->exec.low_confidence;
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

  void eval_loop(const desc::CallNode& node, WalkState& s) {
    if (!charge_step()) return;
    const double count = static_cast<double>(std::max(node.loop_count, 1));
    eval_block(node.body, s);  // cold iteration (first-touch transfers)
    if (count < 2.0 || exhausted_) return;
    const WalkState after_cold = s;
    eval_block(node.body, s);  // steady-state iteration
    if (exhausted_) return;

    // PL073: the steady-state iteration is transfer-bound — the coherence
    // states force at least as much link time as compute time, every trip.
    const double steady_transfer = s.transfer_time - after_cold.transfer_time;
    const double steady_exec = (s.host_exec + s.device_exec) -
                               (after_cold.host_exec + after_cold.device_exec);
    if (steady_transfer > 0.0 && steady_transfer >= steady_exec &&
        transfer_bound_reported_.insert(&node).second) {
      const double h2d = s.h2d_bytes - after_cold.h2d_bytes;
      const double d2h = s.d2h_bytes - after_cold.d2h_bytes;
      std::ostringstream msg;
      msg << "statically transfer-bound loop: every steady-state iteration "
             "moves "
          << static_cast<std::uint64_t>(h2d) << " bytes H2D and "
          << static_cast<std::uint64_t>(d2h) << " bytes D2H ("
          << steady_transfer << " s on the link) against " << steady_exec
          << " s of compute — keep the data resident on one side or provide "
             "a same-side variant for the consumer";
      bag_.add("PL073", Severity::kWarning, std::move(msg).str(), node.loc);
    }

    // Iterations 3..count repeat the steady-state iteration; extrapolate
    // the full state linearly from the measured steady delta.
    if (count > 2.0) s.extrapolate_from(after_cold, count - 2.0);
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
    const double then_end = std::max(then_state.clock[0], then_state.clock[1]);
    const double else_end = std::max(else_state.clock[0], else_state.clock[1]);
    WalkState& winner = then_end >= else_end ? then_state : else_state;
    WalkState& loser = then_end >= else_end ? else_state : then_state;
    winner.makespan_lo =
        before.makespan_lo + std::min(then_state.makespan_lo - before.makespan_lo,
                                      else_state.makespan_lo - before.makespan_lo);
    winner.makespan_hi =
        before.makespan_hi + std::max(then_state.makespan_hi - before.makespan_hi,
                                      else_state.makespan_hi - before.makespan_hi);
    for (const auto& [name, other] : loser.containers) {
      ContainerState& mine = winner.containers[name];
      mine.worlds.insert(other.worlds.begin(), other.worlds.end());
      mine.avail = std::max(mine.avail, other.avail);
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

    const double est = std::max(state_.clock[0], state_.clock[1]);
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
