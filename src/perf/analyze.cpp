#include "perf/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

namespace peppher::perf {
namespace {

/// Severity comes from the registry so the docs table, --explain and the
/// emitted findings can never disagree.
diag::Severity severity_of(const char* code) {
  const diag::CodeInfo* info = diag::find_code(code);
  return info != nullptr ? info->severity : diag::Severity::kWarning;
}

void add(diag::DiagnosticBag& bag, const char* code,
         const std::string& message) {
  bag.add(code, severity_of(code), message);
}

/// Human name of a program point: the verify/descriptor point id when the
/// task was tagged with one, otherwise the task name. This is the key the
/// static analyses use too, so dynamic findings line up with PL0xx ones.
std::string program_point(const std::string& name, int point) {
  if (point >= 0) {
    return "'" + name + "' (point " + std::to_string(point) + ")";
  }
  return "'" + name + "'";
}

std::string seconds(double value) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << value << " s";
  return std::move(out).str();
}

std::string percent(double ratio) {
  std::ostringstream out;
  out.precision(0);
  out << std::fixed << ratio * 100.0 << "%";
  return std::move(out).str();
}

/// Length of the overlap of [a0, a1) and [b0, b1).
double overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

/// The program point with the most summed kernel seconds among `tasks`
/// (successful attempts only, optionally restricted to one worker).
std::string dominant_point(const std::vector<rt::TaskRecord>& tasks,
                           int worker) {
  std::map<std::pair<std::string, int>, double> by_point;
  for (const rt::TaskRecord& t : tasks) {
    if (t.failed) continue;
    if (worker >= 0 && t.worker != worker) continue;
    by_point[{t.name, t.verify_point}] += t.exec_seconds;
  }
  std::string best;
  double best_exec = -1.0;
  for (const auto& [key, exec] : by_point) {
    if (exec > best_exec) {
      best_exec = exec;
      best = program_point(key.first, key.second);
    }
  }
  return best.empty() ? "(no tasks)" : best;
}

// ---------------------------------------------------------------------------
// PF001: device imbalance inside a class of equivalent workers
// ---------------------------------------------------------------------------
//
// Workers are grouped into peer classes by (arch, device profile); the
// combined fork-join CPU worker is its own class (it is not a peer of the
// per-core workers it spans). Within a class of at least two, one worker
// hoarding the busy time while a peer idles means the machine is larger
// than the schedule: serial chains, bad priorities or a mis-sized profile.
void check_imbalance(const Trace& trace, const AnalysisOptions& options,
                     diag::DiagnosticBag& bag) {
  std::map<int, double> busy;  // worker id -> successful kernel seconds
  for (const rt::TaskRecord& t : trace.tasks) {
    if (!t.failed) busy[t.worker] += t.exec_seconds;
  }
  std::map<std::tuple<std::string, std::string, bool>, std::vector<TraceWorker>>
      classes;
  for (const TraceWorker& w : trace.workers) {
    classes[{w.arch, w.name, w.combined}].push_back(w);
  }
  for (const auto& [key, members] : classes) {
    if (members.size() < 2) continue;
    double total = 0.0;
    double max_busy = -1.0;
    double min_busy = 0.0;
    const TraceWorker* dominant = nullptr;
    for (const TraceWorker& w : members) {
      const double b = busy.count(w.id) != 0 ? busy.at(w.id) : 0.0;
      total += b;
      if (b > max_busy) {
        max_busy = b;
        dominant = &w;
      }
      min_busy = (&w == &members.front()) ? b : std::min(min_busy, b);
    }
    if (total <= 0.0 || dominant == nullptr) continue;
    const double max_share = max_busy / total;
    const double min_share = min_busy / total;
    if (max_share < options.dominant_share || min_share > options.idle_share) {
      continue;
    }
    add(bag, "PF001",
        "device imbalance: worker " + std::to_string(dominant->id) + " ('" +
            dominant->name + "', " + dominant->arch + ") carries " +
            percent(max_share) + " of its " +
            std::to_string(members.size()) +
            "-worker class while the least-loaded peer carries " +
            percent(min_share) + "; dominant program point " +
            dominant_point(trace.tasks, dominant->id));
  }
}

// ---------------------------------------------------------------------------
// PF002: transfer-bound phase
// ---------------------------------------------------------------------------
//
// Phases come from the application's trace_phase markers; a trace without
// at least two markers is treated as one phase spanning the makespan.
void check_transfer_bound(const Trace& trace, const AnalysisOptions& options,
                          diag::DiagnosticBag& bag) {
  struct Phase {
    std::string label;
    double begin;
    double end;
  };
  std::vector<Phase> phases;
  if (trace.phases.size() >= 2) {
    for (std::size_t i = 0; i + 1 < trace.phases.size(); ++i) {
      phases.push_back({trace.phases[i].label, trace.phases[i].vtime,
                        trace.phases[i + 1].vtime});
    }
  } else {
    phases.push_back({"run", 0.0, trace.makespan});
  }
  for (const Phase& phase : phases) {
    if (phase.end <= phase.begin) continue;
    double compute = 0.0;
    for (const rt::TaskRecord& t : trace.tasks) {
      if (!t.failed) {
        compute += overlap(t.vstart, t.vend, phase.begin, phase.end);
      }
    }
    double moved = 0.0;
    for (const rt::TransferRecord& t : trace.transfers) {
      moved += overlap(t.vstart, t.vend, phase.begin, phase.end);
    }
    if (moved <= 0.0 || moved <= options.transfer_bound_ratio * compute) {
      continue;
    }
    add(bag, "PF002",
        "phase '" + phase.label + "' is transfer-bound: " + seconds(moved) +
            " busy on interconnect lanes vs " + seconds(compute) +
            " compute; overlap more work or keep data resident");
  }
}

// ---------------------------------------------------------------------------
// PF003/PF004: prefetcher effectiveness
// ---------------------------------------------------------------------------
void check_prefetches(const Trace& trace, const AnalysisOptions& options,
                      diag::DiagnosticBag& bag) {
  int enqueued = 0;
  int skipped = 0;  // excludes shutdown drains: those are teardown, not misses
  int stale = 0;
  for (const rt::PrefetchRecord& p : trace.prefetches) {
    if (p.event == rt::PrefetchEvent::kEnqueued) ++enqueued;
    if (p.event != rt::PrefetchEvent::kSkipped) continue;
    if (p.reason != rt::PrefetchSkipReason::kShutdown) ++skipped;
    if (p.reason == rt::PrefetchSkipReason::kWriterRace) ++stale;
  }
  if (enqueued >= options.min_prefetches &&
      static_cast<double>(skipped) >
          options.miss_ratio * static_cast<double>(enqueued)) {
    add(bag, "PF003",
        "prefetcher mostly missing: " + std::to_string(skipped) + " of " +
            std::to_string(enqueued) +
            " enqueued prefetches were skipped; placements change before "
            "the copy engine reaches them");
  }
  if (stale > 0) {
    add(bag, "PF004",
        std::to_string(stale) +
            " prefetch(es) skipped stale under an in-flight writer; the "
            "scheduler hints a node while another task still writes the "
            "datum");
  }
}

// ---------------------------------------------------------------------------
// PF005: scheduler cost-model misprediction
// ---------------------------------------------------------------------------
void check_mispredictions(const Trace& trace, const AnalysisOptions& options,
                          diag::DiagnosticBag& bag) {
  std::map<std::uint64_t, const rt::TaskRecord*> done;
  for (const rt::TaskRecord& t : trace.tasks) {
    if (!t.failed) done[t.sequence] = &t;
  }
  int sampled = 0;
  int mispredicted = 0;
  double worst_error = -1.0;
  const rt::TaskRecord* worst_task = nullptr;
  for (const rt::DecisionRecord& d : trace.decisions) {
    // Calibration placements carry no meaningful estimate.
    if (d.explored || d.chosen_estimate < 0.0) continue;
    const auto it = done.find(d.task_sequence);
    if (it == done.end()) continue;
    ++sampled;
    const double actual = it->second->vend;
    const double error = std::fabs(actual - d.chosen_estimate);
    const double relative =
        error / std::max({actual, d.chosen_estimate, 1e-12});
    if (relative <= options.mispredict_rel || error <= options.mispredict_abs) {
      continue;
    }
    ++mispredicted;
    if (error > worst_error) {
      worst_error = error;
      worst_task = it->second;
    }
  }
  if (sampled < options.min_decisions || worst_task == nullptr) return;
  if (static_cast<double>(mispredicted) <
      options.mispredict_share * static_cast<double>(sampled)) {
    return;
  }
  add(bag, "PF005",
      "scheduler mispredictions: " + std::to_string(mispredicted) + " of " +
          std::to_string(sampled) +
          " placement estimates were off by more than " +
          percent(options.mispredict_rel) + "; worst at " +
          program_point(worst_task->name, worst_task->verify_point) + " (" +
          seconds(worst_error) +
          " off); calibrate history models for this machine");
}

// ---------------------------------------------------------------------------
// PF006: loop-carried ping-pong observed at runtime
// ---------------------------------------------------------------------------
//
// The dynamic twin of the static placement smells (PL052/PL064): a datum
// whose executing memory node keeps alternating is being shipped back and
// forth every iteration, and each bounce is a full round trip on the bus.
void check_ping_pong(const Trace& trace, const AnalysisOptions& options,
                     diag::DiagnosticBag& bag) {
  std::map<int, int> node_of_worker;
  for (const TraceWorker& w : trace.workers) node_of_worker[w.id] = w.node;

  std::vector<const rt::TaskRecord*> ordered;
  for (const rt::TaskRecord& t : trace.tasks) {
    if (!t.failed) ordered.push_back(&t);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const rt::TaskRecord* a, const rt::TaskRecord* b) {
              return a->sequence < b->sequence;
            });

  std::map<std::uint64_t, std::vector<const rt::TaskRecord*>> by_datum;
  for (const rt::TaskRecord* t : ordered) {
    for (const std::uint64_t id : t->data) by_datum[id].push_back(t);
  }
  for (const auto& [datum, users] : by_datum) {
    int alternations = 0;
    int previous_node = -1;
    std::map<int, int> nodes_seen;
    std::map<std::pair<std::string, int>, double> points;
    for (const rt::TaskRecord* t : users) {
      const auto node_it = node_of_worker.find(t->worker);
      if (node_it == node_of_worker.end()) continue;
      const int node = node_it->second;
      ++nodes_seen[node];
      if (previous_node >= 0 && node != previous_node) {
        ++alternations;
        points[{t->name, t->verify_point}] += 1.0;
      }
      previous_node = node;
    }
    if (alternations < options.min_alternations || nodes_seen.size() < 2) {
      continue;
    }
    // The two most-visited nodes and the points that trigger the bounces.
    std::vector<std::pair<int, int>> top(nodes_seen.begin(), nodes_seen.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::string bouncing;
    int listed = 0;
    for (const auto& [key, count] : points) {
      if (listed++ == 2) break;
      bouncing += (listed == 1 ? "" : " and ") +
                  program_point(key.first, key.second);
    }
    add(bag, "PF006",
        "loop-carried ping-pong: data " + std::to_string(datum) +
            " alternated executing node " + std::to_string(alternations) +
            " times (mostly nodes " + std::to_string(top[0].first) + " and " +
            std::to_string(top[1].first) + "), bounced at " + bouncing +
            "; pin the datum or fuse the alternating steps");
  }
}

// ---------------------------------------------------------------------------
// PF007: node-link-bound phase / lopsided halo exchange (cluster traces)
// ---------------------------------------------------------------------------
//
// Only cluster traces have transfers with from_node != to_node; on a
// single-host trace every hop is intra-node and the check is silent. Two
// distinct smells share the code because they share the evidence:
//
//  (a) a phase whose inter-node lanes are busy a large fraction of its
//      compute time is latency/bandwidth-bound on the cluster fabric —
//      the halo exchange is not hidden behind interior compute;
//  (b) one directed node pair carrying far more bytes than the
//      least-loaded active pair means a lopsided partitioning: the heavy
//      link paces every bulk-synchronous step.
void check_node_link(const Trace& trace, const AnalysisOptions& options,
                     diag::DiagnosticBag& bag) {
  std::vector<const rt::TransferRecord*> internode;
  for (const rt::TransferRecord& t : trace.transfers) {
    if (t.from_node != t.to_node) internode.push_back(&t);
  }
  if (static_cast<int>(internode.size()) < options.min_node_transfers) return;

  // (a) per-phase inter-node busy vs compute busy — PF002's phase framing.
  struct Phase {
    std::string label;
    double begin;
    double end;
  };
  std::vector<Phase> phases;
  if (trace.phases.size() >= 2) {
    for (std::size_t i = 0; i + 1 < trace.phases.size(); ++i) {
      phases.push_back({trace.phases[i].label, trace.phases[i].vtime,
                        trace.phases[i + 1].vtime});
    }
  } else {
    phases.push_back({"run", 0.0, trace.makespan});
  }
  for (const Phase& phase : phases) {
    if (phase.end <= phase.begin) continue;
    double compute = 0.0;
    for (const rt::TaskRecord& t : trace.tasks) {
      if (!t.failed) {
        compute += overlap(t.vstart, t.vend, phase.begin, phase.end);
      }
    }
    double link = 0.0;
    int hops = 0;
    for (const rt::TransferRecord* t : internode) {
      const double busy = overlap(t->vstart, t->vend, phase.begin, phase.end);
      if (busy > 0.0) ++hops;
      link += busy;
    }
    if (hops < options.min_node_transfers || compute <= 0.0 ||
        link < options.node_link_share * compute) {
      continue;
    }
    add(bag, "PF007",
        "phase '" + phase.label + "' is node-link-bound: " + seconds(link) +
            " busy on inter-node lanes vs " + seconds(compute) +
            " compute (" + std::to_string(hops) +
            " hops); widen the halo overlap or exchange less often");
  }

  // (b) per-directed-pair byte imbalance across the whole trace.
  std::map<std::pair<int, int>, std::uint64_t> pair_bytes;
  for (const rt::TransferRecord* t : internode) {
    pair_bytes[{t->from_node, t->to_node}] += t->bytes;
  }
  if (pair_bytes.size() < 2) return;
  auto heaviest = pair_bytes.begin();
  auto lightest = pair_bytes.begin();
  for (auto it = pair_bytes.begin(); it != pair_bytes.end(); ++it) {
    if (it->second > heaviest->second) heaviest = it;
    if (it->second < lightest->second) lightest = it;
  }
  if (lightest->second == 0 ||
      static_cast<double>(heaviest->second) <=
          options.node_imbalance_ratio *
              static_cast<double>(lightest->second)) {
    return;
  }
  add(bag, "PF007",
      "lopsided halo exchange: link " +
          std::to_string(heaviest->first.first) + "->" +
          std::to_string(heaviest->first.second) + " carried " +
          std::to_string(heaviest->second) + " B while link " +
          std::to_string(lightest->first.first) + "->" +
          std::to_string(lightest->first.second) + " carried " +
          std::to_string(lightest->second) +
          " B; rebalance the partitioning so every inter-node link moves "
          "similar halo volume");
}

}  // namespace

diag::DiagnosticBag analyze_trace(const Trace& trace,
                                  const AnalysisOptions& options) {
  diag::DiagnosticBag bag;
  check_imbalance(trace, options, bag);
  check_transfer_bound(trace, options, bag);
  check_prefetches(trace, options, bag);
  check_mispredictions(trace, options, bag);
  check_ping_pong(trace, options, bag);
  check_node_link(trace, options, bag);
  bag.sort();
  return bag;
}

}  // namespace peppher::perf
