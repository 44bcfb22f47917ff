// Distributed (multi-node) smart containers: a vector partitioned across
// the simulated cluster nodes of an Engine. Each partition is a *slice
// list* — the contiguous element ranges a node works on — and a derived
// halo partitioning widens every partition with read-only ghost slices of
// its neighbours (configurable halo width), the shape every stencil and
// row-blocked sparse kernel needs.
//
// Slices are materialised lazily as runtime DataHandles aliasing the one
// host-side payload, and the handle cache is keyed by the slice bounds:
// repartitioning to a layout that reuses a slice reuses its handle — and
// therefore keeps whatever accelerator replicas the slice already has —
// instead of forcing the data back to a host. Only the slices that
// actually changed shape pay a flush.
//
// The payload itself is registered at construction too, like every smart
// container's storage, but no task uses that handle: the container reaches
// its engine only through it, so once the engine shut down every use
// throws instead of calling into a destroyed engine.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "containers/containers.hpp"
#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "runtime/types.hpp"
#include "support/error.hpp"

namespace peppher::cont {

/// A contiguous element range [begin, end) of a partitioned container.
struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
  friend bool operator==(const Slice& a, const Slice& b) noexcept {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// One partition: the element range a simulated node owns plus the full
/// slice list it touches (the owned range and, after with_halo, the ghost
/// slices it reads from its neighbours).
struct Partition {
  int node = 0;   ///< owning simulated cluster node
  Slice owned;    ///< range this partition is responsible for writing
  std::vector<Slice> slices;  ///< all ranges it touches (owned first)

  std::size_t owned_elements() const noexcept { return owned.size(); }
};

/// A partitioning of `elements` elements over simulated nodes.
struct Partitioning {
  std::size_t elements = 0;
  std::size_t halo = 0;  ///< ghost width the slice lists were derived with
  std::vector<Partition> parts;

  /// Near-equal contiguous block partitioning over nodes 0..nodes-1 (the
  /// first `elements % nodes` blocks get one extra element). Every
  /// partition's slice list is just its owned range.
  static Partitioning block(std::size_t elements, int nodes) {
    check(nodes > 0, "Partitioning::block: need at least one node");
    check(elements >= static_cast<std::size_t>(nodes),
          "Partitioning::block: fewer elements than nodes");
    Partitioning p;
    p.elements = elements;
    const std::size_t base = elements / static_cast<std::size_t>(nodes);
    std::size_t extra = elements % static_cast<std::size_t>(nodes);
    std::size_t at = 0;
    for (int n = 0; n < nodes; ++n) {
      Partition part;
      part.node = n;
      part.owned.begin = at;
      at += base + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      part.owned.end = at;
      part.slices = {part.owned};
      p.parts.push_back(std::move(part));
    }
    return p;
  }

  /// Derives a halo partitioning: every partition's slice list gains up to
  /// `width` ghost elements on each side of its owned range (clamped at
  /// the container bounds). The owned ranges are unchanged — halos are
  /// read-only views of the neighbours' data.
  Partitioning with_halo(std::size_t width) const {
    Partitioning out = *this;
    out.halo = width;
    for (Partition& part : out.parts) {
      part.slices = {part.owned};
      if (width == 0) continue;
      if (part.owned.begin > 0) {
        const std::size_t lo =
            part.owned.begin > width ? part.owned.begin - width : 0;
        part.slices.push_back({lo, part.owned.begin});
      }
      if (part.owned.end < elements) {
        const std::size_t hi = std::min(elements, part.owned.end + width);
        part.slices.push_back({part.owned.end, hi});
      }
    }
    return out;
  }
};

/// A 1-D container whose payload is partitioned across the simulated nodes
/// of an Engine. See the file comment for the slice/handle model.
template <typename T>
class PartitionedVector {
 public:
  PartitionedVector(rt::Engine* engine, Partitioning partitioning, T init = T{})
      : storage_(engine, partitioning.elements, init),
        partitioning_(std::move(partitioning)) {
    check(engine != nullptr, "PartitionedVector needs an engine");
    validate(partitioning_);
  }

  PartitionedVector(const PartitionedVector&) = delete;
  PartitionedVector& operator=(const PartitionedVector&) = delete;

  ~PartitionedVector() {
    // An engine that already shut down synced and detached the handles.
    for (auto& [bounds, handle] : handles_) {
      try {
        if (rt::Engine* engine = handle->engine()) engine->unregister(handle);
      } catch (...) {
        // destructors must not throw; the engine drains what it can
      }
    }
  }

  std::size_t size() const noexcept { return storage_.count(); }
  const Partitioning& partitioning() const noexcept { return partitioning_; }
  T* data() noexcept { return storage_.data(); }

  /// The runtime handle of one slice; registered on first use, cached by
  /// the slice bounds. Slices that overlap are each their own handle — the
  /// coherence of overlapping views is the application's business (the
  /// halo-exchange pattern copies owned -> ghost explicitly). Throws once
  /// the engine shut down.
  const rt::DataHandlePtr& slice_handle(const Slice& slice) {
    rt::Engine& engine = storage_.engine();
    check(slice.begin < slice.end && slice.end <= size(),
          "slice out of container bounds");
    auto [it, inserted] =
        handles_.try_emplace({slice.begin, slice.end}, nullptr);
    if (inserted) {
      it->second = engine.register_buffer(storage_.data() + slice.begin,
                                          slice.size() * sizeof(T), sizeof(T));
      it->second->keep_home_at_shutdown(true);  // storage_ outlives the engine
    }
    return it->second;
  }

  /// Handles of every slice of partition `index`, in slice-list order.
  std::vector<rt::DataHandlePtr> partition_handles(std::size_t index) {
    check(index < partitioning_.parts.size(), "bad partition index");
    std::vector<rt::DataHandlePtr> out;
    for (const Slice& slice : partitioning_.parts[index].slices) {
      out.push_back(slice_handle(slice));
    }
    return out;
  }

  /// Switches to a new partitioning of the same payload. Slices present in
  /// both layouts keep their handles — and with them every device replica
  /// they have — so a repartition that only moves some boundaries does not
  /// force the untouched data off the accelerators. Dropped slices are
  /// unregistered (their data is pulled home first, by the engine).
  void repartition(Partitioning next) {
    rt::Engine& engine = storage_.engine();
    check(next.elements == size(), "repartition: element count mismatch");
    validate(next);
    std::map<std::pair<std::size_t, std::size_t>, rt::DataHandlePtr> kept;
    for (const Partition& part : next.parts) {
      for (const Slice& slice : part.slices) {
        const auto it = handles_.find({slice.begin, slice.end});
        if (it != handles_.end()) kept.insert(*it);
      }
    }
    for (auto& [bounds, handle] : handles_) {
      if (kept.count(bounds) == 0) engine.unregister(handle);
    }
    handles_ = std::move(kept);
    partitioning_ = std::move(next);
  }

  /// Live slice handles (diagnostics / tests).
  std::size_t registered_slices() const noexcept { return handles_.size(); }

  /// Makes the host copy of every registered slice valid and returns a
  /// host view of the whole payload.
  std::span<T> host_access(rt::AccessMode mode) {
    rt::Engine& engine = storage_.engine();
    for (auto& [bounds, handle] : handles_) engine.acquire_host(handle, mode);
    return {storage_.data(), size()};
  }

 private:
  static void validate(const Partitioning& p) {
    check(!p.parts.empty(), "partitioning has no partitions");
    for (const Partition& part : p.parts) {
      check(part.owned.begin < part.owned.end && part.owned.end <= p.elements,
            "partition owns an invalid range");
      for (const Slice& slice : part.slices) {
        check(slice.begin < slice.end && slice.end <= p.elements,
              "partition slice out of bounds");
      }
    }
  }

  detail::ManagedStorage<T> storage_;  ///< the payload and its engine link
  Partitioning partitioning_;
  std::map<std::pair<std::size_t, std::size_t>, rt::DataHandlePtr> handles_;
};

}  // namespace peppher::cont
