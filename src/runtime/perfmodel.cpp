#include "runtime/perfmodel.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace peppher::rt {

// ---------------------------------------------------------------------------
// SampleStats
// ---------------------------------------------------------------------------

void SampleStats::add(double value) noexcept {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  const double delta = value - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (value - mean);
}

double SampleStats::variance() const noexcept {
  return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
}

double SampleStats::stddev() const noexcept { return std::sqrt(variance()); }

// ---------------------------------------------------------------------------
// footprint
// ---------------------------------------------------------------------------

std::uint64_t footprint_of(const std::vector<std::size_t>& operand_bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t bytes : operand_bytes) mix(bytes);
  return hash;
}

// ---------------------------------------------------------------------------
// Multi-term model (Extra-P style)
// ---------------------------------------------------------------------------

std::string_view to_string(TermBasis basis) noexcept {
  switch (basis) {
    case TermBasis::kConst: return "1";
    case TermBasis::kLog: return "log";
    case TermBasis::kLinear: return "n";
    case TermBasis::kNLogN: return "nlogn";
    case TermBasis::kQuadratic: return "n2";
  }
  return "1";
}

std::optional<TermBasis> parse_term_basis(std::string_view text) noexcept {
  if (text == "1") return TermBasis::kConst;
  if (text == "log") return TermBasis::kLog;
  if (text == "n") return TermBasis::kLinear;
  if (text == "nlogn") return TermBasis::kNLogN;
  if (text == "n2") return TermBasis::kQuadratic;
  return std::nullopt;
}

double term_value(TermBasis basis, double n) noexcept {
  n = std::max(n, 1.0);
  switch (basis) {
    case TermBasis::kConst: return 1.0;
    case TermBasis::kLog: return std::log2(n);
    case TermBasis::kLinear: return n;
    case TermBasis::kNLogN: return n * std::log2(n);
    case TermBasis::kQuadratic: return n * n;
  }
  return 1.0;
}

double MultiTermModel::evaluate(double bytes) const noexcept {
  double sum = 0.0;
  for (const ModelTerm& term : terms) {
    sum += term.coefficient * term_value(term.basis, bytes);
  }
  return std::max(sum, 0.0);
}

bool MultiTermModel::extrapolates(double bytes, double slack) const noexcept {
  if (min_bytes == 0 && max_bytes == 0) return true;
  return bytes < static_cast<double>(min_bytes) / slack ||
         bytes > static_cast<double>(max_bytes) * slack;
}

namespace {

struct FitPoint {
  double n = 0.0;       // total operand bytes
  double y = 0.0;       // mean seconds
  double weight = 0.0;  // 1/y² — minimises *relative* squared error
};

/// Weighted least squares over the chosen bases: solves the k×k normal
/// equations (XᵀWX)c = XᵀWy by Gaussian elimination with partial pivoting.
/// Returns false when the system is (near-)singular.
bool solve_least_squares(const std::vector<FitPoint>& points,
                         const std::vector<TermBasis>& bases,
                         std::size_t skip_index,
                         std::vector<double>* coefficients) {
  const std::size_t k = bases.size();
  std::vector<double> a(k * k, 0.0);
  std::vector<double> b(k, 0.0);
  std::vector<double> x(k, 0.0);
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (p == skip_index) continue;
    const FitPoint& pt = points[p];
    for (std::size_t i = 0; i < k; ++i) x[i] = term_value(bases[i], pt.n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) a[i * k + j] += pt.weight * x[i] * x[j];
      b[i] += pt.weight * x[i] * pt.y;
    }
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < k; ++row) {
      if (std::abs(a[row * k + col]) > std::abs(a[pivot * k + col])) pivot = row;
    }
    if (std::abs(a[pivot * k + col]) < 1e-300) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < k; ++j) std::swap(a[col * k + j], a[pivot * k + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < k; ++row) {
      const double factor = a[row * k + col] / a[col * k + col];
      for (std::size_t j = col; j < k; ++j) a[row * k + j] -= factor * a[col * k + j];
      b[row] -= factor * b[col];
    }
  }
  coefficients->assign(k, 0.0);
  for (std::size_t row = k; row-- > 0;) {
    double sum = b[row];
    for (std::size_t j = row + 1; j < k; ++j) sum -= a[row * k + j] * (*coefficients)[j];
    (*coefficients)[row] = sum / a[row * k + row];
  }
  for (double c : (*coefficients)) {
    if (!std::isfinite(c)) return false;
  }
  return true;
}

double evaluate_terms(const std::vector<TermBasis>& bases,
                      const std::vector<double>& coefficients, double n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    sum += coefficients[i] * term_value(bases[i], n);
  }
  return sum;
}

/// All 1- and 2-term subsets of the candidate bases, singles first so that
/// on cross-validation ties the simpler hypothesis wins.
const std::vector<std::vector<TermBasis>>& term_candidates() {
  static const std::vector<std::vector<TermBasis>> candidates = [] {
    std::vector<std::vector<TermBasis>> out;
    for (int i = 0; i < kTermBasisCount; ++i) {
      out.push_back({static_cast<TermBasis>(i)});
    }
    for (int i = 0; i < kTermBasisCount; ++i) {
      for (int j = i + 1; j < kTermBasisCount; ++j) {
        out.push_back({static_cast<TermBasis>(i), static_cast<TermBasis>(j)});
      }
    }
    return out;
  }();
  return candidates;
}

constexpr std::size_t kNoSkip = std::numeric_limits<std::size_t>::max();

}  // namespace

// ---------------------------------------------------------------------------
// HistoryModel
// ---------------------------------------------------------------------------

void HistoryModel::record(std::uint64_t footprint, std::size_t total_bytes,
                          double seconds) {
  Entry& entry = entries_[footprint];
  entry.total_bytes = total_bytes;
  entry.stats.add(seconds);
  fit_valid_ = false;
}

std::optional<double> HistoryModel::expected(std::uint64_t footprint) const {
  auto it = entries_.find(footprint);
  if (it == entries_.end() || it->second.stats.count == 0) return std::nullopt;
  return it->second.stats.mean;
}

std::uint64_t HistoryModel::sample_count(std::uint64_t footprint) const {
  auto it = entries_.find(footprint);
  return it == entries_.end() ? 0 : it->second.stats.count;
}

std::optional<double> HistoryModel::regression_estimate(
    std::size_t total_bytes) const {
  // Fewer entries than the fit needs distinct sizes: skip building them
  // (every dmda decision asks, for every worker).
  if (entries_.size() < 4) return std::nullopt;
  // Collect distinct (bytes, mean) pairs with positive values.
  std::map<std::size_t, double> points;
  for (const auto& [footprint, entry] : entries_) {
    (void)footprint;
    if (entry.total_bytes > 0 && entry.stats.mean > 0.0) {
      points[entry.total_bytes] = entry.stats.mean;
    }
  }
  if (points.size() < 4) return std::nullopt;
  // Least squares on log(time) = log(a) + b * log(bytes).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(points.size());
  for (const auto& [bytes, mean] : points) {
    const double x = std::log(static_cast<double>(bytes));
    const double y = std::log(mean);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return std::nullopt;
  double b = (n * sxy - sx * sy) / denom;
  b = std::clamp(b, 0.0, 3.0);  // physical exponents only
  const double log_a = (sy - b * sx) / n;
  return std::exp(log_a + b * std::log(static_cast<double>(total_bytes)));
}

std::optional<MultiTermModel> HistoryModel::multi_term_fit() const {
  if (fit_valid_) {
    if (!fit_.usable()) return std::nullopt;
    return fit_;
  }
  fit_valid_ = true;
  fit_ = MultiTermModel{};
  std::map<std::size_t, double> by_bytes;
  for (const auto& [footprint, entry] : entries_) {
    (void)footprint;
    if (entry.total_bytes > 0 && entry.stats.mean > 0.0) {
      by_bytes[entry.total_bytes] = entry.stats.mean;
    }
  }
  if (by_bytes.size() < 4) return std::nullopt;
  std::vector<FitPoint> points;
  points.reserve(by_bytes.size());
  for (const auto& [bytes, mean] : by_bytes) {
    points.push_back({static_cast<double>(bytes), mean, 1.0 / (mean * mean)});
  }

  double best_cv = std::numeric_limits<double>::infinity();
  std::vector<TermBasis> best_bases;
  std::vector<double> best_coefficients;
  std::vector<double> coefficients;
  std::vector<double> loo;
  for (const std::vector<TermBasis>& bases : term_candidates()) {
    if (bases.size() + 2 > points.size()) continue;
    if (!solve_least_squares(points, bases, kNoSkip, &coefficients)) continue;
    // A time model must predict positive time over the observed range.
    bool positive = true;
    for (const FitPoint& pt : points) {
      if (evaluate_terms(bases, coefficients, pt.n) <= 0.0) {
        positive = false;
        break;
      }
    }
    if (!positive) continue;
    // Leave-one-out cross-validation on relative error.
    double squared = 0.0;
    bool cv_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!solve_least_squares(points, bases, i, &loo)) {
        cv_ok = false;
        break;
      }
      const double predicted = evaluate_terms(bases, loo, points[i].n);
      const double relative = (predicted - points[i].y) / points[i].y;
      squared += relative * relative;
    }
    if (!cv_ok) continue;
    const double cv = std::sqrt(squared / static_cast<double>(points.size()));
    if (cv < best_cv) {
      best_cv = cv;
      best_bases = bases;
      best_coefficients = coefficients;
    }
  }
  if (best_bases.empty()) return std::nullopt;
  for (std::size_t i = 0; i < best_bases.size(); ++i) {
    fit_.terms.push_back({best_bases[i], best_coefficients[i]});
  }
  fit_.cv_error = best_cv;
  fit_.points = points.size();
  fit_.min_bytes = static_cast<std::size_t>(points.front().n);
  fit_.max_bytes = static_cast<std::size_t>(points.back().n);
  return fit_;
}

std::optional<double> HistoryModel::multi_term_estimate(
    std::size_t total_bytes) const {
  const std::optional<MultiTermModel> model = multi_term_fit();
  if (!model) return std::nullopt;
  return model->evaluate(static_cast<double>(total_bytes));
}

std::pair<std::size_t, std::size_t> HistoryModel::bytes_range() const {
  std::pair<std::size_t, std::size_t> range{0, 0};
  bool first = true;
  for (const auto& [footprint, entry] : entries_) {
    (void)footprint;
    if (first) {
      range = {entry.total_bytes, entry.total_bytes};
      first = false;
    } else {
      range.first = std::min(range.first, entry.total_bytes);
      range.second = std::max(range.second, entry.total_bytes);
    }
  }
  return range;
}

std::uint64_t HistoryModel::total_samples() const {
  std::uint64_t total = 0;
  for (const auto& [footprint, entry] : entries_) {
    (void)footprint;
    total += entry.stats.count;
  }
  return total;
}

std::string HistoryModel::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "peppher-model v2\n";
  for (const auto& [footprint, entry] : entries_) {
    out << footprint << ' ' << entry.total_bytes << ' ' << entry.stats.count
        << ' ' << entry.stats.mean << ' ' << entry.stats.m2 << ' '
        << entry.stats.min << ' ' << entry.stats.max << '\n';
  }
  if (const std::optional<MultiTermModel> fit = multi_term_fit()) {
    out << "fit " << fit->cv_error << ' ' << fit->points << ' '
        << fit->min_bytes << ' ' << fit->max_bytes << ' ' << fit->terms.size();
    for (const ModelTerm& term : fit->terms) {
      out << ' ' << to_string(term.basis) << ' ' << term.coefficient;
    }
    out << '\n';
  }
  return std::move(out).str();
}

namespace {

/// One whitespace-separated token of a model line plus its 1-based column,
/// so parse errors can point at the offending field.
struct Token {
  std::string_view text;
  int column = 1;
};

std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r')) {
      ++i;
    }
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    out.push_back({line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return out;
}

[[noreturn]] void fail_at(const std::string& message, int line, int column) {
  throw ParseError(message, line, column);
}

/// Rethrows a located ParseError from parsing `file` with the file named in
/// its text; the structured line/column carry over unchanged.
[[noreturn]] void rethrow_naming(const ParseError& e,
                                 const std::filesystem::path& file) {
  std::string message = e.what();
  const std::string prefix(to_string(ErrorCode::kParseError));
  if (strings::starts_with(message, prefix + ": ")) {
    message = message.substr(prefix.size() + 2);
  }
  throw ParseError(message, file.string(), e.line(), e.column());
}

/// Full-width unsigned parse: footprints are 64-bit hashes that routinely
/// exceed LLONG_MAX, so strings::to_int (signed) is not usable here.
std::uint64_t parse_u64_field(const Token& token, std::string_view field,
                              int line) {
  unsigned long long value = 0;
  const char* begin = token.text.data();
  const char* end = begin + token.text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    fail_at("model field '" + std::string(field) +
                "' is not an unsigned integer: '" + std::string(token.text) +
                "'",
            line, token.column);
  }
  return static_cast<std::uint64_t>(value);
}

double parse_time_field(const Token& token, std::string_view field, int line,
                        bool require_non_negative) {
  const std::optional<double> value = strings::to_double(token.text);
  if (!value || !std::isfinite(*value)) {
    fail_at("model field '" + std::string(field) +
                "' is not a finite number: '" + std::string(token.text) + "'",
            line, token.column);
  }
  if (require_non_negative && *value < 0.0) {
    fail_at("model field '" + std::string(field) + "' is negative: '" +
                std::string(token.text) + "'",
            line, token.column);
  }
  return *value;
}

}  // namespace

void HistoryModel::deserialize(std::string_view text) {
  entries_.clear();
  fit_valid_ = false;
  fit_ = MultiTermModel{};

  const std::vector<std::string> lines = strings::split(text, '\n');
  bool v2 = false;
  bool saw_fit = false;
  for (std::size_t index = 0; index < lines.size(); ++index) {
    const int line_no = static_cast<int>(index) + 1;
    const std::vector<Token> fields = tokenize(lines[index]);
    if (fields.empty()) continue;

    if (fields[0].text == "peppher-model") {
      if (index != 0) {
        fail_at("model header must be the first line", line_no,
                fields[0].column);
      }
      if (fields.size() != 2 || fields[1].text != "v2") {
        fail_at("unsupported model format version (expected 'peppher-model v2')",
                line_no, fields.size() > 1 ? fields[1].column : fields[0].column);
      }
      v2 = true;
      continue;
    }

    if (fields[0].text == "fit") {
      if (!v2) {
        fail_at("'fit' line requires a 'peppher-model v2' header", line_no,
                fields[0].column);
      }
      if (saw_fit) {
        fail_at("duplicate 'fit' line", line_no, fields[0].column);
      }
      saw_fit = true;
      if (fields.size() < 6) {
        fail_at("'fit' line needs at least 6 fields "
                "(fit cv points min max k ...)",
                line_no, fields[0].column);
      }
      MultiTermModel fit;
      fit.cv_error = parse_time_field(fields[1], "cv_error", line_no, true);
      fit.points =
          static_cast<std::size_t>(parse_u64_field(fields[2], "points", line_no));
      fit.min_bytes = static_cast<std::size_t>(
          parse_u64_field(fields[3], "min_bytes", line_no));
      fit.max_bytes = static_cast<std::size_t>(
          parse_u64_field(fields[4], "max_bytes", line_no));
      if (fit.min_bytes > fit.max_bytes) {
        fail_at("'fit' line has min_bytes > max_bytes", line_no,
                fields[3].column);
      }
      const std::uint64_t k = parse_u64_field(fields[5], "term_count", line_no);
      if (k == 0 || k > static_cast<std::uint64_t>(kTermBasisCount)) {
        fail_at("'fit' term count out of range", line_no, fields[5].column);
      }
      if (fields.size() != 6 + 2 * static_cast<std::size_t>(k)) {
        fail_at("'fit' line field count does not match its term count",
                line_no, fields[0].column);
      }
      for (std::uint64_t i = 0; i < k; ++i) {
        const Token& basis_token = fields[6 + 2 * i];
        const std::optional<TermBasis> basis = parse_term_basis(basis_token.text);
        if (!basis) {
          fail_at("unknown model term basis '" + std::string(basis_token.text) +
                      "'",
                  line_no, basis_token.column);
        }
        const double coefficient = parse_time_field(
            fields[7 + 2 * i], "coefficient", line_no, false);
        fit.terms.push_back({*basis, coefficient});
      }
      fit_ = fit;
      fit_valid_ = true;
      continue;
    }

    if (fields.size() != 7) {
      fail_at("bad performance-model line: expected 7 fields "
              "(footprint bytes count mean m2 min max), got " +
                  std::to_string(fields.size()),
              line_no, fields[0].column);
    }
    const std::uint64_t footprint =
        parse_u64_field(fields[0], "footprint", line_no);
    if (entries_.count(footprint) != 0) {
      fail_at("duplicate footprint key '" + std::string(fields[0].text) + "'",
              line_no, fields[0].column);
    }
    Entry entry;
    entry.total_bytes =
        static_cast<std::size_t>(parse_u64_field(fields[1], "bytes", line_no));
    entry.stats.count = parse_u64_field(fields[2], "count", line_no);
    if (entry.stats.count == 0) {
      fail_at("model entry has a zero sample count", line_no, fields[2].column);
    }
    entry.stats.mean = parse_time_field(fields[3], "mean", line_no, true);
    entry.stats.m2 = parse_time_field(fields[4], "m2", line_no, true);
    entry.stats.min = parse_time_field(fields[5], "min", line_no, true);
    entry.stats.max = parse_time_field(fields[6], "max", line_no, true);
    if (entry.stats.min > entry.stats.max) {
      fail_at("model entry has min > max", line_no, fields[5].column);
    }
    entries_[footprint] = entry;
  }
}

// ---------------------------------------------------------------------------
// PerfRegistry
// ---------------------------------------------------------------------------

void PerfRegistry::record(const std::string& codelet, Arch arch,
                          std::uint64_t footprint, std::size_t total_bytes,
                          double seconds) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  models_[{codelet, static_cast<int>(arch)}].record(footprint, total_bytes,
                                                    seconds);
}

std::optional<double> PerfRegistry::expected(const std::string& codelet, Arch arch,
                                             std::uint64_t footprint) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find({codelet, static_cast<int>(arch)});
  if (it == models_.end()) return std::nullopt;
  return it->second.expected(footprint);
}

std::uint64_t PerfRegistry::sample_count(const std::string& codelet, Arch arch,
                                         std::uint64_t footprint) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find({codelet, static_cast<int>(arch)});
  return it == models_.end() ? 0 : it->second.sample_count(footprint);
}

std::optional<double> PerfRegistry::regression_estimate(
    const std::string& codelet, Arch arch, std::size_t total_bytes) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find({codelet, static_cast<int>(arch)});
  if (it == models_.end()) return std::nullopt;
  return it->second.regression_estimate(total_bytes);
}

std::optional<double> PerfRegistry::calibrated_mean(
    const std::string& codelet, Arch arch, std::uint64_t footprint,
    std::uint64_t calibration_min) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find({codelet, static_cast<int>(arch)});
  if (it == models_.end() ||
      it->second.sample_count(footprint) < calibration_min) {
    return std::nullopt;
  }
  return it->second.expected(footprint);
}

std::optional<double> PerfRegistry::estimate_exec(
    const std::string& codelet, Arch arch, std::uint64_t footprint,
    std::size_t total_bytes, std::uint64_t calibration_min) const {
  if (std::optional<double> mean =
          calibrated_mean(codelet, arch, footprint, calibration_min)) {
    return mean;
  }
  return regression_estimate(codelet, arch, total_bytes);
}

std::optional<MultiTermModel> PerfRegistry::multi_term_fit(
    const std::string& codelet, Arch arch) const {
  // Exclusive: the fit is computed lazily and cached inside the model.
  std::lock_guard<std::shared_mutex> lock(mutex_);
  auto it = models_.find({codelet, static_cast<int>(arch)});
  if (it == models_.end()) return std::nullopt;
  return it->second.multi_term_fit();
}

bool PerfRegistry::has_model(const std::string& codelet, Arch arch) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return models_.count({codelet, static_cast<int>(arch)}) != 0;
}

void PerfRegistry::save(const std::filesystem::path& dir) const {
  // Exclusive: serialisation computes (and caches) the multi-term fit.
  std::lock_guard<std::shared_mutex> lock(mutex_);
  fs::make_dirs(dir);
  for (const auto& [key, model] : models_) {
    const std::string filename =
        key.first + "." + to_string(static_cast<Arch>(key.second)) + ".model";
    fs::write_file(dir / filename, model.serialize());
  }
}

void PerfRegistry::load(const std::filesystem::path& dir) {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  for (const auto& path : fs::list_files(dir, ".model")) {
    const std::string stem = path.stem().string();  // "<codelet>.<arch>"
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos) continue;
    const std::string codelet = stem.substr(0, dot);
    Arch arch;
    try {
      arch = parse_arch(stem.substr(dot + 1));
    } catch (const Error&) {
      continue;  // not one of ours
    }
    const Key key{codelet, static_cast<int>(arch)};
    try {
      models_[key].deserialize(fs::read_file(path));
    } catch (const ParseError& e) {
      models_.erase(key);  // never keep a half-parsed model
      rethrow_naming(e, path);
    }
  }
}

void PerfRegistry::clear() {
  std::lock_guard<std::shared_mutex> lock(mutex_);
  models_.clear();
}

std::vector<PerfRegistry::ModelInfo> PerfRegistry::list() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [key, model] : models_) {
    ModelInfo info;
    info.codelet = key.first;
    info.arch = static_cast<Arch>(key.second);
    info.entries = model.entry_count();
    info.samples = model.total_samples();
    std::tie(info.min_bytes, info.max_bytes) = model.bytes_range();
    out.push_back(std::move(info));
  }
  return out;
}

// ---------------------------------------------------------------------------
// DispatchTable
// ---------------------------------------------------------------------------

std::uint64_t DispatchTable::key_prefix(std::string_view codelet) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (char c : codelet) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t DispatchTable::key_from_prefix(std::uint64_t prefix,
                                             std::uint64_t footprint,
                                             int point) noexcept {
  std::uint64_t hash = prefix;
  auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(footprint);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(point)));
  return hash;
}

std::uint64_t DispatchTable::key(std::string_view codelet,
                                 std::uint64_t footprint, int point) noexcept {
  return key_from_prefix(key_prefix(codelet), footprint, point);
}

void DispatchTable::train(const std::string& codelet, std::uint64_t footprint,
                          int point, Arch arch, std::uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(train_mutex_);
  counts_[CountKey{codelet, footprint, point}]
         [static_cast<std::size_t>(arch)] += count;
}

namespace {

std::optional<Arch> majority_arch(
    const std::array<std::uint64_t, kArchCount>& counts) {
  std::uint64_t best = 0;
  int arch = -1;
  for (int i = 0; i < kArchCount; ++i) {
    if (counts[static_cast<std::size_t>(i)] > best) {
      best = counts[static_cast<std::size_t>(i)];
      arch = i;
    }
  }
  if (arch < 0) return std::nullopt;
  return static_cast<Arch>(arch);
}

}  // namespace

void DispatchTable::finalize() {
  std::lock_guard<std::mutex> lock(train_mutex_);
  resolved_.clear();
  // Wildcard aggregates: collapse footprint, point, and both, so replay
  // still resolves when the exact (footprint, point) pair never trained.
  std::map<CountKey, ArchCounts> by_point;      // footprint collapsed to 0
  std::map<CountKey, ArchCounts> by_footprint;  // point collapsed to -1
  std::map<CountKey, ArchCounts> by_codelet;    // both collapsed
  for (const auto& [ck, counts] : counts_) {
    auto add = [&counts](ArchCounts& into) {
      for (int i = 0; i < kArchCount; ++i) {
        into[static_cast<std::size_t>(i)] += counts[static_cast<std::size_t>(i)];
      }
    };
    add(by_point[CountKey{ck.codelet, 0, ck.point}]);
    add(by_footprint[CountKey{ck.codelet, ck.footprint, -1}]);
    add(by_codelet[CountKey{ck.codelet, 0, -1}]);
  }
  auto resolve = [this](const std::map<CountKey, ArchCounts>& groups) {
    for (const auto& [ck, counts] : groups) {
      if (const std::optional<Arch> arch = majority_arch(counts)) {
        resolved_[key(ck.codelet, ck.footprint, ck.point)] = *arch;
      }
    }
  };
  resolve(counts_);
  resolve(by_point);
  resolve(by_footprint);
  resolve(by_codelet);
}

std::optional<Arch> DispatchTable::lookup(
    std::uint64_t probe_key) const noexcept {
  const auto it = resolved_.find(probe_key);
  if (it == resolved_.end()) return std::nullopt;
  return it->second;
}

bool DispatchTable::empty() const {
  std::lock_guard<std::mutex> lock(train_mutex_);
  return counts_.empty();
}

std::vector<DispatchTable::Entry> DispatchTable::entries() const {
  std::lock_guard<std::mutex> lock(train_mutex_);
  std::vector<Entry> out;
  for (const auto& [ck, counts] : counts_) {
    for (int i = 0; i < kArchCount; ++i) {
      const std::uint64_t count = counts[static_cast<std::size_t>(i)];
      if (count == 0) continue;
      out.push_back(Entry{ck.codelet, ck.footprint, ck.point,
                          static_cast<Arch>(i), count});
    }
  }
  return out;
}

std::string DispatchTable::serialize() const {
  std::ostringstream out;
  out << "peppher-dispatch v1 " << machine_ << '\n';
  for (const Entry& entry : entries()) {
    out << entry.codelet << ' ' << entry.footprint << ' ' << entry.point
        << ' ' << to_string(entry.arch) << ' ' << entry.count << '\n';
  }
  return std::move(out).str();
}

std::vector<DispatchTable::Entry> DispatchTable::parse(
    std::string_view text, std::string* machine) {
  const std::vector<std::string> lines = strings::split(text, '\n');
  bool saw_header = false;
  std::set<std::tuple<std::string, std::uint64_t, int, int>> seen;
  std::vector<Entry> entries;
  for (std::size_t index = 0; index < lines.size(); ++index) {
    const int line_no = static_cast<int>(index) + 1;
    const std::vector<Token> fields = tokenize(lines[index]);
    if (fields.empty()) continue;

    if (!saw_header) {
      if (fields[0].text != "peppher-dispatch") {
        fail_at("dispatch table must start with a 'peppher-dispatch v1' "
                "header",
                line_no, fields[0].column);
      }
      if (fields.size() < 2 || fields[1].text != "v1") {
        fail_at("unsupported dispatch-table version (expected "
                "'peppher-dispatch v1')",
                line_no,
                fields.size() > 1 ? fields[1].column : fields[0].column);
      }
      if (fields.size() > 3) {
        fail_at("dispatch header has trailing fields after the machine name",
                line_no, fields[3].column);
      }
      if (machine != nullptr) {
        *machine =
            fields.size() == 3 ? std::string(fields[2].text) : "unknown";
      }
      saw_header = true;
      continue;
    }

    if (fields.size() != 5) {
      fail_at("bad dispatch line: expected 5 fields "
              "(codelet footprint point arch count), got " +
                  std::to_string(fields.size()),
              line_no, fields[0].column);
    }
    Entry entry;
    entry.codelet = std::string(fields[0].text);
    entry.footprint = parse_u64_field(fields[1], "footprint", line_no);
    const std::optional<long long> point = strings::to_int(fields[2].text);
    if (!point || *point < -1 ||
        *point > std::numeric_limits<int>::max()) {
      fail_at("dispatch field 'point' is not a program point (integer >= "
              "-1): '" +
                  std::string(fields[2].text) + "'",
              line_no, fields[2].column);
    }
    entry.point = static_cast<int>(*point);
    try {
      entry.arch = parse_arch(fields[3].text);
    } catch (const Error&) {
      fail_at("unknown dispatch architecture '" + std::string(fields[3].text) +
                  "'",
              line_no, fields[3].column);
    }
    entry.count = parse_u64_field(fields[4], "count", line_no);
    if (entry.count == 0) {
      fail_at("dispatch field 'count' must be positive", line_no,
              fields[4].column);
    }
    if (!seen.insert({entry.codelet, entry.footprint, entry.point,
                      static_cast<int>(entry.arch)})
             .second) {
      fail_at("duplicate dispatch entry for (codelet, footprint, point, "
              "arch)",
              line_no, fields[0].column);
    }
    entry.line = line_no;
    entries.push_back(std::move(entry));
  }
  if (!saw_header) {
    fail_at("dispatch table must start with a 'peppher-dispatch v1' header",
            1, 1);
  }
  return entries;
}

std::vector<DispatchTable::Entry> DispatchTable::parse_file(
    const std::filesystem::path& file, std::string* machine) {
  try {
    return parse(fs::read_file(file), machine);
  } catch (const ParseError& e) {
    rethrow_naming(e, file);
  }
}

void DispatchTable::assign(const std::vector<Entry>& entries,
                           std::string machine) {
  std::lock_guard<std::mutex> lock(train_mutex_);
  counts_.clear();
  resolved_.clear();
  for (const Entry& entry : entries) {
    counts_[CountKey{entry.codelet, entry.footprint, entry.point}]
           [static_cast<std::size_t>(entry.arch)] += entry.count;
  }
  machine_ = std::move(machine);
}

void DispatchTable::deserialize(std::string_view text) {
  std::string machine;
  const std::vector<Entry> entries = parse(text, &machine);
  assign(entries, std::move(machine));
}

void DispatchTable::save(const std::filesystem::path& file) const {
  fs::write_file(file, serialize());
}

void DispatchTable::load(const std::filesystem::path& file) {
  std::string machine;
  const std::vector<Entry> entries = parse_file(file, &machine);
  assign(entries, std::move(machine));
  finalize();
}

}  // namespace peppher::rt
