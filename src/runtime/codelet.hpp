// Codelets: the runtime-level unit the composition tool's generated wrappers
// create tasks for. A codelet bundles the implementation variants of one
// PEPPHER component (CPU serial / OpenMP / CUDA / OpenCL), exactly as StarPU
// codelets bundle per-architecture task functions.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "support/parallel.hpp"

namespace peppher::rt {

/// Everything an implementation function can see while executing: its
/// operand buffers (already coherent on the executing memory node), the raw
/// argument blob, and the parallel width granted to it.
///
/// Holds *references* to the operand vectors (the engine reuses per-thread
/// scratch buffers across executions so the task hot path stays
/// allocation-free); the vectors must outlive the context, which a kernel
/// body never observes — the context only lives for the duration of one
/// Implementation::fn call.
class ExecContext {
 public:
  /// `team` is the combined-CPU worker's fork-join team; nullptr for every
  /// other worker.
  ExecContext(Arch arch, WorkerId worker, ForkJoinTeam* team,
              const std::vector<void*>& buffers,
              const std::vector<std::size_t>& buffer_bytes,
              const std::vector<std::size_t>& buffer_element_sizes,
              const void* arg)
      : arch_(arch),
        worker_(worker),
        team_(team),
        buffers_(buffers),
        buffer_bytes_(buffer_bytes),
        buffer_element_sizes_(buffer_element_sizes),
        arg_(arg) {}

  Arch arch() const noexcept { return arch_; }
  WorkerId worker() const noexcept { return worker_; }

  /// Number of CPU threads this implementation may use (the node's CPU
  /// count for kCpuOmp variants, 1 otherwise).
  int cpu_threads() const noexcept {
    return team_ != nullptr ? team_->threads() : 1;
  }

  std::size_t buffer_count() const noexcept { return buffers_.size(); }

  /// Raw pointer to operand `i` in the executing node's memory space.
  void* buffer(std::size_t i) const { return buffers_.at(i); }

  /// Operand `i` reinterpreted as T*. T must match the registered element
  /// type's size.
  template <typename T>
  T* buffer_as(std::size_t i) const {
    return static_cast<T*>(buffers_.at(i));
  }

  std::size_t buffer_bytes(std::size_t i) const { return buffer_bytes_.at(i); }

  /// Element count of operand `i` (bytes / registered element size).
  std::size_t elements(std::size_t i) const {
    return buffer_bytes_.at(i) / buffer_element_sizes_.at(i);
  }

  /// Typed view of the task argument blob.
  template <typename T>
  const T& arg() const {
    return *static_cast<const T*>(arg_);
  }

  const void* raw_arg() const noexcept { return arg_; }

  /// Fork-join loop over [begin, end): on the combined-CPU worker the
  /// chunks run on its persistent team (ForkJoinTeam), elsewhere the body
  /// runs inline over the whole range. An exception thrown by a chunk
  /// propagates once every claimed chunk finished.
  void parallel_for(std::size_t begin, std::size_t end, ChunkFn body) const {
    if (team_ != nullptr) {
      team_->parallel_for(begin, end, body);
    } else if (begin < end) {
      body(begin, end);
    }
  }

 private:
  Arch arch_;
  WorkerId worker_;
  ForkJoinTeam* team_;
  const std::vector<void*>& buffers_;
  const std::vector<std::size_t>& buffer_bytes_;
  const std::vector<std::size_t>& buffer_element_sizes_;
  const void* arg_;
};

/// The kernel body of one implementation variant.
using ImplFn = std::function<void(ExecContext&)>;

/// Work estimate used by the roofline cost model: given the operand sizes
/// (bytes, in operand order) and the argument blob, report flops/bytes/
/// regularity for one execution. Optional — without it, an execution is
/// committed for kNeutralExecSeconds of virtual time.
using CostFn = std::function<sim::KernelCost(const std::vector<std::size_t>&,
                                             const void*)>;

/// Call-context selectability predicate (§II: "additional constraints for
/// component selectability, e.g. parameter ranges"): given the operand
/// sizes and the argument blob, decide whether this variant may serve the
/// call. Optional — absent means always selectable.
using SelectFn = std::function<bool(const std::vector<std::size_t>&,
                                    const void*)>;

/// One implementation variant of a codelet.
struct Implementation {
  Implementation() = default;
  Implementation(Arch arch, std::string name, ImplFn fn, CostFn cost = nullptr,
                 SelectFn selectable = nullptr)
      : arch(arch),
        name(std::move(name)),
        fn(std::move(fn)),
        cost(std::move(cost)),
        selectable(std::move(selectable)) {}

  Arch arch = Arch::kCpu;
  std::string name;  ///< variant name, e.g. "spmv_csr_cusp"
  ImplFn fn;
  CostFn cost;           ///< may be empty
  SelectFn selectable;   ///< may be empty (always selectable)
  bool enabled = true;   ///< user-guided static composition (disableImpls)
};

/// A codelet: one component's set of implementation variants plus the name
/// under which its performance history is recorded.
class Codelet {
 public:
  explicit Codelet(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  Codelet& add_impl(Implementation impl) {
    impls_.push_back(std::move(impl));
    return *this;
  }

  const std::vector<Implementation>& impls() const noexcept { return impls_; }

  /// First *enabled* implementation for `arch`, or nullptr.
  const Implementation* impl_for(Arch arch) const noexcept {
    for (const auto& impl : impls_) {
      if (impl.enabled && impl.arch == arch) return &impl;
    }
    return nullptr;
  }

  bool has_enabled_impl() const noexcept {
    for (const auto& impl : impls_) {
      if (impl.enabled) return true;
    }
    return false;
  }

  /// Disables every variant whose name or architecture matches `what`
  /// (the composition tool's disableImpls switch). Returns the number of
  /// variants disabled.
  int disable_impls(std::string_view what);

  /// Re-enables everything.
  void enable_all() {
    for (auto& impl : impls_) impl.enabled = true;
  }

 private:
  std::string name_;
  std::vector<Implementation> impls_;
};

}  // namespace peppher::rt
