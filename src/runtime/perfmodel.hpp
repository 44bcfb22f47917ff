// History-based performance models — the "execution-history-based
// performance information" the PEPPHER runtime layer uses for
// performance-aware dynamic composition (§I, §V-D of the paper).
//
// Like StarPU's models: execution times are recorded per (codelet,
// architecture, input footprint); the dmda scheduler asks for the expected
// time of a candidate (worker, variant) pair. An exact footprint match uses
// the recorded mean; an unseen footprint falls back to a power-law
// regression over recorded sizes; with too little data the model reports
// "uncalibrated", which the scheduler resolves by forced exploration.
// Models persist to a sampling directory between runs, like StarPU's
// ~/.starpu/sampling.
//
// On top of the online path, each history can produce an Extra-P-style
// multi-term model (Calotoiu et al.): time(n) = Σ cᵢ·fᵢ(n) over candidate
// basis terms {1, log n, n, n·log n, n²}, with the term subset chosen by
// leave-one-out cross-validation. The static analyser (peppher-predict)
// uses these to evaluate component cost at sizes the history never
// observed; the scheduler's online estimate is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "runtime/types.hpp"

namespace peppher::rt {

/// Welford online mean/variance accumulator.
struct SampleStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double value) noexcept;
  double variance() const noexcept;
  double stddev() const noexcept;
};

/// Stable footprint of a task's operand sizes (order-sensitive FNV-1a), the
/// history-table key.
std::uint64_t footprint_of(const std::vector<std::size_t>& operand_bytes) noexcept;

/// One candidate basis function of a multi-term model, evaluated over the
/// task's total operand byte count n.
enum class TermBasis : std::uint8_t {
  kConst,      ///< 1
  kLog,        ///< log2(n)
  kLinear,     ///< n
  kNLogN,      ///< n·log2(n)
  kQuadratic,  ///< n²
};

inline constexpr int kTermBasisCount = 5;

/// Serialisation name of a basis ("1", "log", "n", "nlogn", "n2").
std::string_view to_string(TermBasis basis) noexcept;

/// Inverse of to_string(TermBasis); nullopt for unknown names.
std::optional<TermBasis> parse_term_basis(std::string_view text) noexcept;

/// Value of one basis function at n bytes (n clamped to >= 1).
double term_value(TermBasis basis, double n) noexcept;

/// One fitted term: coefficient · basis(n).
struct ModelTerm {
  TermBasis basis = TermBasis::kConst;
  double coefficient = 0.0;
};

/// Extra-P-style multi-term performance model of one (codelet, arch)
/// history: time(n) = Σ coefficientᵢ · basisᵢ(n), fitted by weighted least
/// squares and selected by leave-one-out cross-validation over the model
/// candidates. Unlike the power-law regression it can express additive
/// behaviour (constant launch overhead + linear traffic, n·log n sorts)
/// and is meant for *design-time* evaluation at unobserved sizes.
struct MultiTermModel {
  std::vector<ModelTerm> terms;
  /// Leave-one-out cross-validation error: RMS of the relative prediction
  /// errors. Infinity when no candidate fitted.
  double cv_error = 0.0;
  /// Number of distinct (bytes, mean) points the fit used.
  std::size_t points = 0;
  /// Observed byte range of the fit; evaluating far outside it is
  /// extrapolation and should lower the caller's confidence.
  std::size_t min_bytes = 0;
  std::size_t max_bytes = 0;

  bool usable() const noexcept { return !terms.empty(); }

  /// Predicted seconds at `bytes` (clamped to >= 0).
  double evaluate(double bytes) const noexcept;

  /// True when `bytes` lies outside the observed [min_bytes, max_bytes]
  /// range by more than `slack` (a factor; 1.0 means strictly outside).
  bool extrapolates(double bytes, double slack = 1.0) const noexcept;
};

/// Execution-time history of one (codelet, architecture) pair.
class HistoryModel {
 public:
  /// Records one measured execution of `seconds` for the given footprint.
  void record(std::uint64_t footprint, std::size_t total_bytes, double seconds);

  /// Mean of the recorded samples for this exact footprint, if any.
  std::optional<double> expected(std::uint64_t footprint) const;

  /// Number of samples recorded for this exact footprint.
  std::uint64_t sample_count(std::uint64_t footprint) const;

  /// Power-law estimate time = a * bytes^b fitted over all footprints with
  /// at least one sample. Requires >= 4 distinct footprint sizes; nullopt
  /// otherwise.
  std::optional<double> regression_estimate(std::size_t total_bytes) const;

  /// Best multi-term model over the recorded (bytes, mean) points, chosen
  /// from all 1- and 2-term subsets of the candidate bases by leave-one-out
  /// cross-validation. Requires >= 4 distinct sizes; nullopt otherwise.
  /// The fit is cached until the next record()/deserialize().
  std::optional<MultiTermModel> multi_term_fit() const;

  /// multi_term_fit() evaluated at `total_bytes`; nullopt when unfittable.
  std::optional<double> multi_term_estimate(std::size_t total_bytes) const;

  /// Number of distinct footprints recorded.
  std::size_t entry_count() const { return entries_.size(); }

  /// Smallest and largest recorded operand footprint in bytes ({0,0} when
  /// empty).
  std::pair<std::size_t, std::size_t> bytes_range() const;

  /// Total samples across all footprints.
  std::uint64_t total_samples() const;

  /// Plain-text serialisation, format v2:
  ///   peppher-model v2
  ///   <footprint> <bytes> <count> <mean> <m2> <min> <max>   (per entry)
  ///   fit <cv_error> <points> <min_bytes> <max_bytes> <k> {<basis> <coeff>}
  /// The `fit` line persists the cross-validated multi-term model (when one
  /// is fittable) so design-time consumers need not refit.
  std::string serialize() const;

  /// Parses v2 text as well as headerless v1 (entry lines only). Malformed
  /// input throws ParseError carrying the 1-based line/column of the
  /// offending token: wrong field counts, non-numeric or non-finite
  /// values, negative times, min > max, zero sample counts and duplicate
  /// footprint keys are all rejected rather than silently coerced.
  void deserialize(std::string_view text);

 private:
  struct Entry {
    std::size_t total_bytes = 0;
    SampleStats stats;
  };
  std::map<std::uint64_t, Entry> entries_;
  // Cached / persisted multi-term fit; invalidated by record() and rebuilt
  // lazily. fit_.usable() == false means "computed, nothing fittable".
  mutable bool fit_valid_ = false;
  mutable MultiTermModel fit_;
};

/// Thread-safe registry of history models keyed by codelet name and
/// architecture. One per Engine. Lookups (expected / sample_count /
/// regression_estimate) take a shared lock so concurrent scheduling
/// estimates from many workers never serialize against each other; only
/// record/load/clear/fit take the lock exclusively.
class PerfRegistry {
 public:
  void record(const std::string& codelet, Arch arch, std::uint64_t footprint,
              std::size_t total_bytes, double seconds);

  std::optional<double> expected(const std::string& codelet, Arch arch,
                                 std::uint64_t footprint) const;

  std::uint64_t sample_count(const std::string& codelet, Arch arch,
                             std::uint64_t footprint) const;

  std::optional<double> regression_estimate(const std::string& codelet, Arch arch,
                                            std::size_t total_bytes) const;

  /// The calibrated-mean rule: the exact-footprint mean once at least
  /// `calibration_min` samples exist; nullopt before, or when the model is
  /// missing. The first estimate of both the engine and peppher-predict.
  std::optional<double> calibrated_mean(const std::string& codelet, Arch arch,
                                        std::uint64_t footprint,
                                        std::uint64_t calibration_min) const;

  /// The engine's history estimate (the exec term of the placement cost):
  /// the calibrated mean, otherwise the power-law regression over recorded
  /// sizes. nullopt when the model is missing or uncalibrated.
  std::optional<double> estimate_exec(const std::string& codelet, Arch arch,
                                      std::uint64_t footprint,
                                      std::size_t total_bytes,
                                      std::uint64_t calibration_min) const;

  /// Cross-validated multi-term model of one history (design-time use).
  /// Takes the exclusive lock: the underlying fit is computed lazily.
  std::optional<MultiTermModel> multi_term_fit(const std::string& codelet,
                                               Arch arch) const;

  /// True when any history exists for (codelet, arch).
  bool has_model(const std::string& codelet, Arch arch) const;

  /// Writes one "<codelet>.<arch>.model" file per model under `dir`.
  void save(const std::filesystem::path& dir) const;

  /// Loads every model file under `dir` (missing dir is fine: cold start).
  /// A malformed file throws ParseError whose text names the file and
  /// whose structured line/column point at the offending token.
  void load(const std::filesystem::path& dir);

  /// Drops all recorded history (benchmark isolation).
  void clear();

  /// Summary row of one stored model (for offline reporting).
  struct ModelInfo {
    std::string codelet;
    Arch arch = Arch::kCpu;
    std::size_t entries = 0;
    std::uint64_t samples = 0;
    std::size_t min_bytes = 0;
    std::size_t max_bytes = 0;
  };

  /// Summaries of every stored model, sorted by codelet then architecture.
  std::vector<ModelInfo> list() const;

 private:
  using Key = std::pair<std::string, int>;
  mutable std::shared_mutex mutex_;
  std::map<Key, HistoryModel> models_;
};

/// Static-composition dispatch table: per-program-point winning placements
/// recorded during a training run and replayed with an O(1) hash lookup —
/// the "offline composition" half of the lookahead scheduler (Kessler &
/// Dastgeer's optimized composition, amortising selection cost to zero).
///
/// Training accumulates observation counts per (codelet, footprint,
/// program point, architecture); finalize() resolves each key to its
/// majority architecture and additionally synthesises wildcard entries
/// (footprint 0 = any footprint, point -1 = any point) by aggregating over
/// the collapsed dimension, so replay still hits when input sizes or call
/// sites differ slightly from the training run. After finalize() the
/// resolved map is immutable and lookup() is lock-free; probe keys are
/// precomputed at task-submit time (Task::dispatch_keys), so a replay
/// probe does no hashing and takes no lock.
///
/// Persisted as a versioned ".dispatch" text artifact next to the ".model"
/// files; malformed input throws located ParseErrors (line/column), same
/// contract as HistoryModel::deserialize.
class DispatchTable {
 public:
  /// One raw training observation group (exact key, per-arch count).
  struct Entry {
    std::string codelet;
    std::uint64_t footprint = 0;  ///< 0 = wildcard (any footprint)
    int point = -1;               ///< program point; -1 = wildcard (any)
    Arch arch = Arch::kCpu;
    std::uint64_t count = 0;      ///< training observations behind the entry
    int line = 0;                 ///< 1-based source line (parse); 0 if trained
  };

  DispatchTable() = default;
  /// Movable (the training mutex does not travel — a moved table is a
  /// value being handed off, e.g. peppher-predict's export); not copyable.
  DispatchTable(DispatchTable&& other)
      : counts_(std::move(other.counts_)),
        resolved_(std::move(other.resolved_)),
        machine_(std::move(other.machine_)) {}
  DispatchTable& operator=(DispatchTable&& other) {
    counts_ = std::move(other.counts_);
    resolved_ = std::move(other.resolved_);
    machine_ = std::move(other.machine_);
    return *this;
  }

  /// Probe key: FNV-1a over the codelet name mixed with footprint and
  /// point. Collision-free in practice (64-bit over a handful of codelets).
  static std::uint64_t key(std::string_view codelet, std::uint64_t footprint,
                           int point) noexcept;

  /// Two-stage variant for callers that derive several keys from one name
  /// (the submit path computes four probe keys per task): hash the name
  /// once, then extend the prefix per (footprint, point) combination.
  /// key_from_prefix(key_prefix(c), f, p) == key(c, f, p).
  static std::uint64_t key_prefix(std::string_view codelet) noexcept;
  static std::uint64_t key_from_prefix(std::uint64_t prefix,
                                       std::uint64_t footprint,
                                       int point) noexcept;

  /// Records `count` winning-placement observations (training path;
  /// mutex-guarded, called from worker threads).
  void train(const std::string& codelet, std::uint64_t footprint, int point,
             Arch arch, std::uint64_t count = 1);

  /// Resolves majority placements (exact keys + wildcard aggregates) into
  /// the lock-free lookup map. Call once, before replay lookups.
  void finalize();

  /// Replay lookup by precomputed probe key. Lock-free; only valid after
  /// finalize(). nullopt = no entry (caller falls back to dynamic choice).
  std::optional<Arch> lookup(std::uint64_t probe_key) const noexcept;

  /// True when no training observations have been recorded/loaded.
  bool empty() const;

  /// Raw entries sorted by (codelet, footprint, point, arch) — reporting
  /// and the serialised line order.
  std::vector<Entry> entries() const;

  const std::string& machine() const { return machine_; }
  void set_machine(std::string name) { machine_ = std::move(name); }

  /// "peppher-dispatch v1 <machine>" header + one counted observation line
  /// per (codelet, footprint, point, arch).
  std::string serialize() const;

  /// The format's one parser: every entry of `text` in file order, each
  /// with its source line; the header's machine name goes to `*machine`.
  /// Throws located ParseError on malformed input (bad header/version,
  /// field count, non-numeric fields, unknown architecture, duplicate keys).
  static std::vector<Entry> parse(std::string_view text,
                                  std::string* machine = nullptr);

  /// parse() over one ".dispatch" file; the ParseError also names the file.
  /// load() throws exactly this error, and peppher-lint reports it as PL000.
  static std::vector<Entry> parse_file(const std::filesystem::path& file,
                                       std::string* machine = nullptr);

  /// Replaces the table's observations with parse(text). Does not
  /// finalize().
  void deserialize(std::string_view text);

  void save(const std::filesystem::path& file) const;

  /// Replaces the table with parse_file(file), then finalizes it.
  void load(const std::filesystem::path& file);

 private:
  struct CountKey {
    std::string codelet;
    std::uint64_t footprint = 0;
    int point = -1;
    bool operator<(const CountKey& other) const {
      return std::tie(codelet, footprint, point) <
             std::tie(other.codelet, other.footprint, other.point);
    }
  };
  using ArchCounts = std::array<std::uint64_t, kArchCount>;

  void assign(const std::vector<Entry>& entries, std::string machine);

  mutable std::mutex train_mutex_;
  std::map<CountKey, ArchCounts> counts_;
  std::unordered_map<std::uint64_t, Arch> resolved_;
  std::string machine_ = "unknown";
};

}  // namespace peppher::rt
