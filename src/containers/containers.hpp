// PEPPHER smart containers (§IV-D of the paper): portable, generic,
// STL-like wrappers (Scalar, Vector, Matrix) whose payload may be operated
// on by component calls running on any device. The containers keep track of
// where valid copies live (via the runtime's coherent DataHandles) and make
// the host copy valid *lazily*, only when the application actually touches
// the data — read and write accesses are distinguished with proxy objects
// (Alexandrescu-style), so a read from the application does not invalidate
// device copies, while a write does. Outside a PEPPHER context (no engine
// attached) they behave as regular containers with zero overhead.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "runtime/types.hpp"
#include "support/error.hpp"

namespace peppher::cont {

namespace detail {

/// Shared managed-buffer plumbing for all three containers. A managed
/// container holds only its runtime handle, registered at construction;
/// the handle knows its engine until that engine shuts down (the shutdown
/// syncs the data home and detaches the handle).
template <typename T>
class ManagedStorage {
 public:
  ManagedStorage(rt::Engine* engine, std::size_t count, T init)
      : storage_(count, init) {
    if (engine != nullptr && count > 0) {
      handle_ = engine->register_buffer(storage_.data(), count * sizeof(T),
                                        sizeof(T));
      handle_->keep_home_at_shutdown(true);  // storage_ outlives the engine
    }
  }

  ManagedStorage(const ManagedStorage&) = delete;
  ManagedStorage& operator=(const ManagedStorage&) = delete;
  ManagedStorage(ManagedStorage&&) noexcept = default;
  ManagedStorage& operator=(ManagedStorage&&) noexcept = default;

  ~ManagedStorage() {
    // Pull the final data home so the memory is plain application memory
    // again (an engine that already shut down did so); swallow errors
    // (destructors must not throw).
    if (handle_ == nullptr) return;
    if (rt::Engine* engine = handle_->engine()) {
      try {
        engine->unregister(handle_);
      } catch (...) {
      }
    }
  }

  bool managed() const noexcept { return handle_ != nullptr; }
  std::size_t count() const noexcept { return storage_.size(); }

  /// The engine the container is registered with. Throws when unmanaged
  /// or after that engine shut down.
  rt::Engine& engine() const {
    check(handle_ != nullptr, "container is not attached to a runtime engine");
    rt::Engine* engine = handle_->engine();
    if (engine == nullptr) {
      throw Error(ErrorCode::kInvalidState,
                  "container (data handle " + std::to_string(handle_->id()) +
                      ") used after its runtime engine shut down");
    }
    return *engine;
  }

  /// The runtime handle (see engine() for when it throws).
  const rt::DataHandlePtr& handle() {
    engine();
    return handle_;
  }

  /// Makes the host copy valid for `mode` (no-op when unmanaged).
  void sync_host(rt::AccessMode mode) {
    if (handle_ != nullptr) engine().acquire_host(handle_, mode);
  }

  /// Warms a replica on `node` ahead of the calls that will read it
  /// (Engine::prefetch). Returns false when unmanaged or the prefetch was
  /// skipped; a prefetch is only a hint, never an error.
  bool prefetch(rt::MemoryNodeId node) {
    return handle_ != nullptr && engine().prefetch(handle_, node);
  }

  T* data() noexcept { return storage_.data(); }
  const T* data() const noexcept { return storage_.data(); }

 private:
  std::vector<T> storage_;
  rt::DataHandlePtr handle_;
};

/// Proxy returned by mutable element access: a plain read converts to T
/// (host copy made valid for reading, device copies stay valid); an
/// assignment writes (device copies are invalidated).
template <typename T, typename Owner>
class ElementProxy {
 public:
  ElementProxy(Owner* owner, std::size_t index) : owner_(owner), index_(index) {}

  /// Read access.
  operator T() const {
    owner_->storage().sync_host(rt::AccessMode::kRead);
    return owner_->storage().data()[index_];
  }

  /// Write access.
  ElementProxy& operator=(const T& value) {
    owner_->storage().sync_host(rt::AccessMode::kReadWrite);
    owner_->storage().data()[index_] = value;
    return *this;
  }

  ElementProxy& operator=(const ElementProxy& other) {
    return *this = static_cast<T>(other);
  }

  ElementProxy& operator+=(const T& value) { return *this = static_cast<T>(*this) + value; }
  ElementProxy& operator-=(const T& value) { return *this = static_cast<T>(*this) - value; }
  ElementProxy& operator*=(const T& value) { return *this = static_cast<T>(*this) * value; }

 private:
  Owner* owner_;
  std::size_t index_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------------

/// 1-D smart container.
template <typename T>
class Vector {
 public:
  using Proxy = detail::ElementProxy<T, Vector<T>>;

  /// Managed vector of `count` elements (engine may be null for plain
  /// container behaviour).
  Vector(rt::Engine* engine, std::size_t count, T init = T{})
      : storage_(engine, count, init) {}

  /// Unmanaged vector: a regular container.
  explicit Vector(std::size_t count, T init = T{})
      : storage_(nullptr, count, init) {}

  std::size_t size() const noexcept { return storage_.count(); }

  /// Element access from the application; reads and writes are detected via
  /// the returned proxy and trigger lazy coherence (§IV-D).
  Proxy operator[](std::size_t index) {
    check(index < size(), "Vector index out of range");
    return Proxy(this, index);
  }

  /// Read-only element access.
  T operator[](std::size_t index) const {
    check(index < size(), "Vector index out of range");
    const_cast<Vector*>(this)->storage_.sync_host(rt::AccessMode::kRead);
    return storage_.data()[index];
  }

  /// Bulk read-only host view (one coherence action for the whole span).
  std::span<const T> read_access() {
    storage_.sync_host(rt::AccessMode::kRead);
    return {storage_.data(), size()};
  }

  /// Bulk mutable host view (invalidates device copies once).
  std::span<T> write_access() {
    storage_.sync_host(rt::AccessMode::kReadWrite);
    return {storage_.data(), size()};
  }

  /// Runtime handle for passing the vector to component calls.
  const rt::DataHandlePtr& handle() { return storage_.handle(); }

  /// Warms a device replica ahead of reads (see Engine::prefetch).
  bool prefetch(rt::MemoryNodeId node) { return storage_.prefetch(node); }

  /// Partitions the vector into `parts` contiguous element blocks for
  /// hybrid execution (§IV-F); the whole-vector handle is unusable until
  /// unpartition().
  std::vector<rt::DataHandlePtr> partition(std::size_t parts) {
    storage_.sync_host(rt::AccessMode::kReadWrite);
    return storage_.handle()->partition(parts);
  }

  /// Gathers the blocks back and revalidates the whole-vector view.
  void unpartition() {
    if (managed()) storage_.engine().unpartition(storage_.handle());
  }

  bool managed() const noexcept { return storage_.managed(); }

  detail::ManagedStorage<T>& storage() noexcept { return storage_; }

 private:
  detail::ManagedStorage<T> storage_;
};

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

/// 2-D (row-major, dense) smart container.
template <typename T>
class Matrix {
 public:
  using Proxy = detail::ElementProxy<T, Matrix<T>>;

  Matrix(rt::Engine* engine, std::size_t rows, std::size_t cols, T init = T{})
      : storage_(engine, rows * cols, init), rows_(rows), cols_(cols) {}

  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : storage_(nullptr, rows * cols, init), rows_(rows), cols_(cols) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return storage_.count(); }

  Proxy operator()(std::size_t row, std::size_t col) {
    check(row < rows_ && col < cols_, "Matrix index out of range");
    return Proxy(this, row * cols_ + col);
  }

  T operator()(std::size_t row, std::size_t col) const {
    check(row < rows_ && col < cols_, "Matrix index out of range");
    const_cast<Matrix*>(this)->storage_.sync_host(rt::AccessMode::kRead);
    return storage_.data()[row * cols_ + col];
  }

  std::span<const T> read_access() {
    storage_.sync_host(rt::AccessMode::kRead);
    return {storage_.data(), size()};
  }

  std::span<T> write_access() {
    storage_.sync_host(rt::AccessMode::kReadWrite);
    return {storage_.data(), size()};
  }

  const rt::DataHandlePtr& handle() { return storage_.handle(); }

  /// Warms a device replica ahead of reads (see Engine::prefetch).
  bool prefetch(rt::MemoryNodeId node) { return storage_.prefetch(node); }

  /// Partitions the matrix into `parts` row blocks for hybrid execution
  /// (§IV-F); element granularity is one row so blocks never split a row.
  std::vector<rt::DataHandlePtr> partition_rows(std::size_t parts) {
    // Rebuild the handle with row-sized elements so partitioning is
    // row-aligned.
    check(parts > 0 && parts <= rows_, "bad row-block partition");
    auto& h = row_handle_;
    if (h == nullptr) {
      storage_.sync_host(rt::AccessMode::kReadWrite);
      h = storage_.engine().register_buffer(storage_.data(),
                                            size() * sizeof(T),
                                            cols_ * sizeof(T));
      h->keep_home_at_shutdown(true);
    }
    storage_.engine().acquire_host(h, rt::AccessMode::kReadWrite);
    return h->partition(parts);
  }

  /// Ends row-block mode and revalidates the whole-matrix view.
  void unpartition_rows() {
    if (row_handle_ != nullptr) {
      storage_.engine().unpartition(row_handle_);
      row_handle_.reset();
    }
  }

  bool managed() const noexcept { return storage_.managed(); }

  detail::ManagedStorage<T>& storage() noexcept { return storage_; }

 private:
  detail::ManagedStorage<T> storage_;
  std::size_t rows_;
  std::size_t cols_;
  rt::DataHandlePtr row_handle_;
};

// ---------------------------------------------------------------------------
// Scalar
// ---------------------------------------------------------------------------

/// 0-D smart container: a single managed value (e.g. a reduction result).
template <typename T>
class Scalar {
 public:
  explicit Scalar(rt::Engine* engine, T init = T{}) : storage_(engine, 1, init) {}
  explicit Scalar(T init = T{}) : storage_(nullptr, 1, init) {}

  /// Read the value (host copy made valid).
  T get() {
    storage_.sync_host(rt::AccessMode::kRead);
    return storage_.data()[0];
  }

  /// Write the value (device copies invalidated).
  void set(const T& value) {
    storage_.sync_host(rt::AccessMode::kReadWrite);
    storage_.data()[0] = value;
  }

  const rt::DataHandlePtr& handle() { return storage_.handle(); }

  /// Warms a device replica ahead of reads (see Engine::prefetch).
  bool prefetch(rt::MemoryNodeId node) { return storage_.prefetch(node); }

  bool managed() const noexcept { return storage_.managed(); }

 private:
  detail::ManagedStorage<T> storage_;
};

}  // namespace peppher::cont
