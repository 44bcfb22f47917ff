#include "analyze/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace peppher::diag {

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

std::string SourceLocation::to_string() const {
  if (!file.empty()) {
    std::string out = file;
    if (line > 0) {
      out += ":" + std::to_string(line);
      if (column > 0) out += ":" + std::to_string(column);
    }
    return out;
  }
  if (line > 0) {
    std::string out = "line " + std::to_string(line);
    if (column > 0) out += ", column " + std::to_string(column);
    return out;
  }
  return "";
}

std::string Diagnostic::format() const {
  std::string out;
  const std::string where = location.to_string();
  if (!where.empty()) out += where + ": ";
  out += std::string(to_string(severity)) + ": " + message + " [" + code + "]";
  return out;
}

void DiagnosticBag::add(std::string code, Severity severity,
                        std::string message, SourceLocation location) {
  diagnostics_.push_back(Diagnostic{std::move(code), severity,
                                    std::move(message), std::move(location)});
}

void DiagnosticBag::merge(std::vector<Diagnostic> other) {
  for (Diagnostic& d : other) diagnostics_.push_back(std::move(d));
}

void DiagnosticBag::sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.location.file != b.location.file) {
                       return a.location.file < b.location.file;
                     }
                     if (a.location.line != b.location.line) {
                       return a.location.line < b.location.line;
                     }
                     if (a.location.column != b.location.column) {
                       return a.location.column < b.location.column;
                     }
                     return a.code < b.code;
                   });
}

std::size_t DiagnosticBag::count(Severity severity) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

bool DiagnosticBag::fails(bool werror) const noexcept {
  if (has_errors()) return true;
  return werror && count(Severity::kWarning) > 0;
}

std::string DiagnosticBag::format_text() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += d.format();
    out += '\n';
  }
  if (!diagnostics_.empty()) {
    out += std::to_string(count(Severity::kError)) + " error(s), " +
           std::to_string(count(Severity::kWarning)) + " warning(s), " +
           std::to_string(count(Severity::kNote)) + " note(s)\n";
  }
  return out;
}

std::string DiagnosticBag::format_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    out += "  {\"code\": \"" + json_escape(d.code) + "\", \"severity\": \"" +
           std::string(to_string(d.severity)) + "\", \"message\": \"" +
           json_escape(d.message) + "\", \"file\": \"" +
           json_escape(d.location.file) +
           "\", \"line\": " + std::to_string(d.location.line) +
           ", \"column\": " + std::to_string(d.location.column) + "}";
    if (i + 1 < diagnostics_.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

std::string DiagnosticBag::format_sarif() const {
  // SARIF severity levels: note | warning | error.
  std::string out;
  out += "{\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"peppher-lint\",\n";
  out += "          \"informationUri\": \"https://www.peppher.eu/\",\n";
  out += "          \"rules\": [\n";
  const std::vector<CodeInfo>& codes = all_codes();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out += "            {\"id\": \"" + std::string(codes[i].code) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(codes[i].summary) + "\"}}";
    if (i + 1 < codes.size()) out += ',';
    out += '\n';
  }
  out += "          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    out += "        {\"ruleId\": \"" + json_escape(d.code) +
           "\", \"level\": \"" + std::string(to_string(d.severity)) +
           "\", \"message\": {\"text\": \"" + json_escape(d.message) + "\"}";
    if (d.location.known()) {
      out += ", \"locations\": [{\"physicalLocation\": {";
      out += "\"artifactLocation\": {\"uri\": \"" +
             json_escape(d.location.file) + "\"}";
      if (d.location.line > 0) {
        out += ", \"region\": {\"startLine\": " +
               std::to_string(d.location.line);
        if (d.location.column > 0) {
          out += ", \"startColumn\": " + std::to_string(d.location.column);
        }
        out += "}";
      }
      out += "}}]";
    }
    out += "}";
    if (i + 1 < diagnostics_.size()) out += ',';
    out += '\n';
  }
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

const std::vector<CodeInfo>& all_codes() {
  static const std::vector<CodeInfo> kCodes = {
      {"PL000", Severity::kError, "descriptor file failed to parse",
       "Fix the syntax error at the reported line/column of the XML "
       "descriptor or 'peppher-dispatch v1' dispatch table; the rest of the "
       "file is not analysed until it parses."},
      {"PL001", Severity::kError,
       "implementation signature arity differs from the interface",
       "Match the variant's C signature to the interface's lowered form "
       "(smart containers lower to element pointer + extent parameters); the "
       "message spells out the expected signature."},
      {"PL002", Severity::kError,
       "implementation parameter type differs from the interface",
       "Change the variant's parameter type to the interface's declared type "
       "(or fix the interface descriptor if the variant is right)."},
      {"PL003", Severity::kError,
       "implementation is const-qualified against a written operand",
       "Drop the const qualifier from the variant's parameter, or change the "
       "interface's access mode to 'read' if the operand is never written."},
      {"PL004", Severity::kError,
       "access mode declares a write through a const type",
       "Make the parameter type mutable or change the declared access mode "
       "to 'read'; a write through a const type cannot reach the data."},
      {"PL005", Severity::kWarning, "operand declared read-only but typed mutable",
       "Add const to the parameter type so the compiler enforces the declared "
       "'read' access mode; a hidden write would race with concurrent readers."},
      {"PL006", Severity::kWarning,
       "no declaration of the variant found in its sources",
       "Declare the variant's entry function (named after the implementation "
       "or the interface) in one of its listed source files."},
      {"PL007", Severity::kWarning, "implementation source file not found",
       "Fix the <source file=...> path, relative to the descriptor's "
       "directory."},
      {"PL008", Severity::kWarning, "non-operand (value) parameter declared writable",
       "Declare value parameters 'read': they are packed into the task's "
       "argument blob, so writes are lost. Pass an operand (pointer or smart "
       "container) if the component must produce output there."},
      {"PL010", Severity::kError,
       "implementation language conflicts with its target platform kind",
       "Align the variant's language with its target platform's kind (a CUDA "
       "variant cannot target a cpu platform), or fix the target attribute."},
      {"PL011", Severity::kWarning,
       "no platform descriptor provides the variant's backend",
       "Add a platform descriptor of the matching kind (or pass a --machine "
       "that provides it); until then the variant is dead weight."},
      {"PL012", Severity::kError,
       "component has no viable implementation variant left",
       "Re-enable a disabled variant or add one for a provided backend; a "
       "component with zero viable variants fails composition."},
      {"PL013", Severity::kWarning, "main module targets an unknown platform",
       "Point <target platform=...> at a declared platform descriptor, or "
       "add the missing platform descriptor."},
      {"PL024", Severity::kError,
       "dispatch entry architecture disagrees with the variant",
       "Retrain the table: no implementation of the entry's interface has "
       "the recorded architecture any more, so the training data is stale."},
      {"PL025", Severity::kWarning,
       "dispatch table matches no interface in the repository",
       "Retrain the table against this repository, or delete the entries "
       "whose interface no longer exists."},
      {"PL026", Severity::kWarning, "dispatch table selects a disabled variant",
       "Re-enable a variant of that architecture or retrain without it; the "
       "branch is unreachable under the current disableImpls narrowing."},
      {"PL027", Severity::kWarning,
       "dispatch table is empty (training produced no data)",
       "Run the training workflow again; an empty table gives the "
       "dispatcher nothing to select with."},
      {"PL030", Severity::kError,
       "one call binds the same data twice with a write (aliasing)",
       "Bind distinct containers, or merge the parameters: the runtime "
       "orders tasks per handle, not operands within one task, so aliased "
       "write bindings race."},
      {"PL031", Severity::kError,
       "read/write race: concurrent reads hide a mutable access",
       "Declare the mutable access 'readwrite' (or make its type const): "
       "declared reads run concurrently, so a hidden write races with every "
       "reader in the window."},
      {"PL032", Severity::kError,
       "write/write race: concurrent reads both hide writes",
       "Declare both hidden-mutable accesses 'readwrite' (or const their "
       "types): two hidden writes in one read window race with each other."},
      {"PL033", Severity::kWarning, "container overwritten before any read (dead write)",
       "Read the written value before the next write, or drop the first "
       "write; an unread write is either dead or a missing dependency."},
      {"PL034", Severity::kError, "call names an unknown interface",
       "Fix the interface name in the <call> element or add the missing "
       "interface descriptor."},
      {"PL035", Severity::kError, "call argument names an unknown parameter",
       "Fix the <arg param=...> name; it must match a parameter of the "
       "called interface."},
      {"PL036", Severity::kWarning, "call leaves an operand parameter unbound",
       "Bind every operand parameter of the interface with an <arg> element "
       "so the hazard analysis sees the call's full data footprint."},
      {"PL040", Severity::kWarning, "implementation name defined more than once",
       "Rename one of the variants; the later definition silently wins."},
      {"PL041", Severity::kError, "implementation provides an unknown interface",
       "Fix the implementation's interface attribute or add the missing "
       "interface descriptor."},
      {"PL042", Severity::kError, "implementation requires an unknown interface",
       "Fix the <requires><interface name=...> reference or add the missing "
       "interface descriptor."},
      {"PL043", Severity::kError, "implementation targets an unknown platform",
       "Fix the <platform target=...> name or add the missing platform "
       "descriptor."},
      {"PL044", Severity::kError, "constraint references an undeclared parameter",
       "Declare the context parameter in the interface's <contextParams>, or "
       "fix the constraint's param attribute."},
      {"PL045", Severity::kWarning, "interface has no implementation variants",
       "Add at least one implementation descriptor providing this "
       "interface."},
      {"PL046", Severity::kWarning,
       "interface requests an unsupported performance metric",
       "Use a supported metric (see docs/descriptors.md) in "
       "<performanceMetrics>."},
      {"PL047", Severity::kError, "main module uses an unknown interface",
       "Fix the <uses interface=...> name or add the missing interface "
       "descriptor."},
      {"PL048", Severity::kWarning,
       "disableImpls names neither an implementation nor an architecture",
       "Fix the disableImpls token: it must name an implementation variant "
       "or an architecture (cpu, openmp, cuda, opencl)."},
      {"PL050", Severity::kError, "interface declares duplicate parameter names",
       "Rename the clashing parameters; bindings and size expressions "
       "resolve parameters by name."},
      {"PL051", Severity::kError, "size expression references an undeclared parameter",
       "Reference only the interface's own integer parameters in "
       "sizeExpr."},
      {"PL052", Severity::kWarning,
       "container ping-pongs across the PCIe link (defeats prefetch)",
       "Provide a variant of the cross-side reader on the writer's side (or "
       "vice versa); every write/read/write round trip re-invalidates the "
       "read-side replica, so prefetching that operand is always wasted."},
      {"PL060", Severity::kWarning,
       "container initialised on only some paths before a read",
       "Initialise the container on every path (or on none, leaving it to "
       "the application) before the reading call: on the uninitialised path "
       "the read consumes whatever the application left in memory."},
      {"PL061", Severity::kNote, "prefetch of data already valid at the target",
       "Drop the <prefetch> statement: on every execution path a valid "
       "replica already exists at the target, so the prefetch transfers "
       "nothing."},
      {"PL062", Severity::kWarning, "write overwritten on every path before any read",
       "Read the written value before it is overwritten, or drop the write; "
       "the verifier proved no path between the two writes reads it."},
      {"PL063", Severity::kWarning, "partition without matching unpartition on some path",
       "Add an <unpartition> on every path leaving the <partition>: a still-"
       "partitioned container cannot be accessed, and its children alias "
       "the parent's memory."},
      {"PL064", Severity::kWarning, "loop-carried ping-pong across the PCIe link",
       "Co-locate the loop's writer and reader (provide a variant on the "
       "other side): each iteration's cross-side read re-fetches the data "
       "the same side's next write re-invalidates."},
      {"PL065", Severity::kError, "branch-divergent access makes a race path-dependent",
       "Declare the hidden-mutable access 'readwrite' (or const its type): "
       "on at least one control-flow path it shares a concurrent read "
       "window with another access to the same container."},
      {"PL066", Severity::kError, "partition protocol violation on some path",
       "Order the partition lifecycle correctly: no access to a partitioned "
       "container before its <unpartition>, no double <partition>, no "
       "<unpartition> without a preceding <partition>."},
      {"PL069", Severity::kError, "verifier failed to reach a fixpoint",
       "Internal limit of the coherence verifier (the abstract state kept "
       "growing); simplify the <calls> section or report a bug with the "
       "descriptor attached."},
      // Distributed coherence verification (peppher-verify with a
      // --cluster profile, docs/verify.md "Distributed verification").
      {"PL080", Severity::kWarning,
       "declared halo narrower than a stencil's access radius",
       "Widen the <partitioned> halo to at least the reading call's declared "
       "radius (or lower the radius): on some path the stencil reaches past "
       "the exchanged ghost region and consumes stale neighbour data."},
      {"PL081", Severity::kError,
       "stencil read with no dominating halo exchange",
       "Insert an <exchange> between the last write and this read on every "
       "path: the ghost copies are stale after any write, and the call's "
       "declared radius makes it consume them."},
      {"PL082", Severity::kWarning,
       "loop-carried internode ping-pong over the cluster link",
       "Co-locate the loop's writer and reader on one cluster node (or "
       "partition the container): each iteration bounces the replica across "
       "the internode link, which is far slower than PCIe."},
      {"PL083", Severity::kWarning,
       "repartition forces device replicas off the accelerators",
       "Repartition while the data is host-resident, or keep the node count "
       "stable (halo-only repartitions preserve the owned slices): moving "
       "the slice boundaries flushes every accelerator replica home first."},
      {"PL084", Severity::kError, "partitioned slice coverage gap or overlap",
       "Make the declared <slice> ranges tile [0, elements) exactly and keep "
       "every node reference inside the cluster profile: gaps leave elements "
       "unowned, overlaps give two nodes the same elements."},
      {"PL085", Severity::kError,
       "gather reachable while a halo exchange is in flight",
       "Quiesce the exchange before gathering (order a call that reads the "
       "exchanged container between them, or drop the exchange): on some "
       "path the gather races the asynchronous ghost copies."},
      {"PL086", Severity::kWarning,
       "node-divergent abstract worlds at a control-flow join",
       "Pin the branches' writers to one cluster node (or merge the "
       "branches): after the join the container's owning node depends on the "
       "path taken, so every consumer pays a worst-case internode fetch."},
      {"PL087", Severity::kError, "write races an in-flight halo exchange",
       "Complete the exchange before writing (order a reading call between "
       "them): the asynchronous ghost copies and the write race, leaving "
       "the replicas divergent depending on copy timing."},
      // Static cost prediction (peppher-predict, docs/predict.md).
      {"PL070", Severity::kWarning, "dead variant under the analysed machine",
       "An implementation variant targets an architecture the analysed "
       "machine does not provide, so no reachable path can ever select it. "
       "Analyse against a machine that has the device, or drop the variant "
       "from the deployment."},
      {"PL071", Severity::kWarning,
       "no performance model for a selectable variant",
       "A (component, architecture) pair the schedule may choose has no "
       "execution history, so the prediction falls back to a neutral guess. "
       "Record models first (peppher-perf --record with --models-out, or an "
       "engine run with a sampling directory) and pass them via --models."},
      {"PL072", Severity::kNote, "model confidence too low at this size",
       "The queried size lies far outside the observed byte range of the "
       "fitted model, or the cross-validated fit error is high; the "
       "prediction is an extrapolation. Record samples nearer the queried "
       "size to tighten the model."},
      {"PL073", Severity::kWarning, "statically transfer-bound loop",
       "The coherence states force more predicted PCIe time than compute "
       "time in every steady-state iteration of this loop. Keep the data "
       "resident on one side across iterations, provide a same-side "
       "variant for the consumer, or batch the transfers."},
      {"PL074", Severity::kError, "predicted device-capacity overflow",
       "The set of containers the schedule keeps resident on the "
       "accelerator exceeds its memory at some program point. Partition "
       "the data, unpartition/evict between phases, or analyse against a "
       "device with more memory."},
      {"PL075", Severity::kNote,
       "accelerator variant predicted unprofitable at the analysed sizes",
       "Every call of this component is predicted faster on the host once "
       "forced transfers are charged; the accelerator variant would only "
       "pay off at larger sizes. Raise the problem size or keep the "
       "producer chain on the accelerator to amortise the copies."},
      {"PL076", Severity::kWarning, "what-if throughput target unreachable",
       "No device count within the search cap reaches the requested "
       "throughput: the host-side or transfer share of the makespan "
       "dominates (Amdahl bound). Move more of the pipeline onto the "
       "accelerator side or relax the target."},
      {"PL077", Severity::kError, "prediction budget exhausted",
       "Internal limit of the static cost interpreter (the program "
       "evaluation exceeded its statement budget); raise --max-steps or "
       "simplify the <calls> section."},
      // Runtime-trace analyses (peppher-perf, docs/perf.md). These operate
      // on recorded executions rather than descriptors, so their
      // "location" is a program point named in the message.
      {"PF001", Severity::kWarning, "device imbalance inside a worker class",
       "One worker of a class of equivalent devices carries almost all of "
       "the class's busy time while a peer idles. Break serial task chains "
       "at the dominant program point, raise parallelism, or shrink the "
       "machine profile to match the schedule."},
      {"PF002", Severity::kWarning, "transfer-bound phase",
       "A phase spends more virtual time on interconnect lanes than on "
       "compute. Keep data resident across the phase, or overlap movement "
       "with kernels via prefetching."},
      {"PF003", Severity::kNote, "prefetcher mostly missing",
       "Most enqueued prefetches were skipped before completing; hints go "
       "stale before the copy engine reaches them. Check that placements "
       "are stable (history models calibrated) or disable prefetching."},
      {"PF004", Severity::kNote, "prefetches skipped stale under a writer",
       "Prefetches found an in-flight writer on the datum and backed off. "
       "Harmless for correctness, but the schedule hints reads while the "
       "producing task still runs; widen the dependency or hint later."},
      {"PF005", Severity::kWarning, "scheduler cost-model misprediction",
       "Predicted completion times diverge from observed ones for a large "
       "share of placements, so dmda-style decisions are built on sand. "
       "Calibrate history models on this machine, or fix the cost "
       "functions of the worst program point named in the message."},
      {"PF006", Severity::kWarning, "runtime loop-carried ping-pong",
       "A datum's executing memory node alternated many times, paying a "
       "bus round trip per bounce — the dynamic twin of PL052/PL064. Pin "
       "the datum to one side, provide a missing variant, or fuse the "
       "alternating program points."},
      {"PF007", Severity::kWarning, "node-link-bound phase / halo imbalance",
       "Cluster traces only. Either a phase's inter-node lanes are busy a "
       "large share of its compute time (the halo exchange is not hidden "
       "behind interior work — widen the overlap window, exchange less "
       "often, or grow the per-node block), or one inter-node link moves "
       "far more bytes than the least-loaded active link (a lopsided "
       "partitioning whose heaviest link paces every step — rebalance the "
       "partition sizes)."},
  };
  return kCodes;
}

const CodeInfo* find_code(std::string_view code) {
  for (const CodeInfo& info : all_codes()) {
    if (info.code == code) return &info;
  }
  return nullptr;
}

std::string_view code_summary(std::string_view code) {
  const CodeInfo* info = find_code(code);
  return info != nullptr ? info->summary : std::string_view{};
}

int explain(std::string_view tool, std::string_view code,
            std::string_view docs) {
  if (code == "all") {
    for (const CodeInfo& info : all_codes()) {
      std::cout << info.code << " (" << to_string(info.severity)
                << "): " << info.summary << "\n";
    }
    return 0;
  }
  const CodeInfo* info = find_code(code);
  if (info == nullptr) {
    std::cerr << tool << ": unknown diagnostic code '" << code
              << "' (or 'all'; see " << docs << ")\n";
    return 2;
  }
  std::cout << info->code << " (" << to_string(info->severity)
            << "): " << info->summary << "\n\n"
            << info->remediation << "\n";
  return 0;
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace peppher::diag
