// In-memory wall-clock spans around the benchmark's calls into each layer's
// public functions (the traced run only).
//
// Every span has a layer name, the id of the solve (or set-up / session)
// it belongs to, its parent span and its start/end on the steady clock. A
// layer's self time is its duration minus what its direct children cover;
// a solve's own self time is the wall time no layer span accounts for.
// Totals are aggregated for every span; individual spans are kept up to a
// cap and written out by write_jsonl() when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Spans {
 public:
  /// Self time and count of one layer, summed over the spans of one root.
  struct LayerTotals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };

  /// Turns recording on or off; while off, Scope costs one branch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a root span (a solve, a set-up, ...) with a fresh id.
  void begin_root(const char* layer);
  /// Closes the root span and returns the per-layer totals under it (the
  /// root's own entry holds the time no child covers).
  std::map<std::string, LayerTotals> end_root();

  /// RAII span of one layer call; nests under the innermost open span.
  class Scope {
   public:
    Scope(Spans& spans, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Wall duration of the call, in seconds (measured even when disabled).
    double seconds() const { return seconds_since(start_); }

   private:
    Spans& spans_;
    Clock::time_point start_;
    bool opened_ = false;
  };

  /// Writes every kept span as one JSON object per line.
  void write_jsonl(const std::filesystem::path& file) const;

  std::size_t kept() const { return kept_.size(); }
  std::uint64_t recorded() const { return recorded_; }

 private:
  struct Open {
    const char* layer;
    std::uint32_t index;  ///< slot in kept_ or kNotKept
    Clock::time_point start;
    double child_s = 0.0;
  };
  struct Record {
    const char* layer;
    std::uint64_t root_id;
    std::uint32_t parent;  ///< index of the parent in kept_, or kNoParent
    double start_s;        ///< relative to origin_
    double end_s;
  };
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNotKept = 0xFFFFFFFEu;
  static constexpr std::size_t kMaxKept = 200'000;

  void open(const char* layer, Clock::time_point start);
  void close(Clock::time_point end);

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::uint64_t next_root_ = 0;
  std::uint64_t root_id_ = 0;
  std::vector<Open> stack_;
  /// Per-layer totals of the open root, looked up by name pointer first
  /// (layers are string literals) so the per-call cost stays flat.
  std::vector<std::pair<const char*, LayerTotals>> root_totals_;
  std::vector<Record> kept_;
  std::uint64_t recorded_ = 0;
};

}  // namespace perfbench
