// Typed tool-parameter schema and configuration encoding.
//
// The PD tool exposes named parameters of four types (float, integer,
// enumeration, boolean), each with a per-benchmark range — exactly the
// structure of the paper's Table 1, where e.g. Source1 and Target1 tune the
// same parameter names over different [Min, Max] ranges.
//
// A configuration is stored canonically as a vector of doubles (floats
// verbatim; integers as rounded doubles; enums as option indices; bools as
// 0/1). Learning code works in the normalized unit cube via encode()/
// decode(), which also quantizes discrete parameters, so samplers and
// surrogate models never special-case types.
//
// Beyond the paper's flat spaces, a ParamSpec can carry MIXED/CONDITIONAL
// structure (the AutoSA-style HLS spaces of src/hls/):
//   * an explicit finite integer domain (`levels`, e.g. the divisors of a
//     loop bound via ParamSpec::factors) instead of a contiguous range;
//   * a divisibility constraint (`divides(parent)`): the value must divide
//     the parent parameter's value in every feasible configuration;
//   * conditional activation (`active_when(parent, value)`): the parameter
//     is meaningful only while the parent holds `value`; in canonical form
//     an inactive parameter is imputed at its canonical (lowest) value.
// decode() honours this structure; on a space without any of it
// (has_constraints() == false) every dimension takes the plain per-type
// arithmetic, which keeps all pre-existing benchmarks bitwise-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace ppat::flow {

enum class ParamType { kFloat, kInt, kEnum, kBool };

struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kFloat;
  double min_value = 0.0;  ///< float/int lower bound (inclusive)
  double max_value = 1.0;  ///< float/int upper bound (inclusive)
  std::vector<std::string> options;  ///< enum labels (kEnum only)

  /// Explicit finite domain (kInt only), strictly increasing integers.
  /// Empty = the contiguous range [min_value, max_value].
  std::vector<double> levels;
  /// Name of an earlier kInt parameter this one must divide (kInt only).
  /// Empty = unconstrained. The domain must contain 1 so every parent value
  /// admits at least one feasible level (rejection-free sampling).
  std::string divides_parent;
  /// Name of an earlier discrete parameter gating this one. Empty = always
  /// active. The parameter is active iff the parent is active AND holds
  /// `active_value`.
  std::string active_parent;
  double active_value = 1.0;

  static ParamSpec real(std::string name, double min_value, double max_value);
  static ParamSpec integer(std::string name, int min_value, int max_value);
  /// Explicit finite integer domain (must be non-empty, strictly increasing).
  static ParamSpec integer_levels(std::string name, std::vector<long> values);
  /// Domain = all positive divisors of `n` (ascending; always contains 1).
  static ParamSpec factors(std::string name, long n);
  /// Enumerations may have a single option: a pinned parameter is legal (and
  /// useful to keep mixed spaces dimension-aligned across tasks).
  static ParamSpec enumeration(std::string name,
                               std::vector<std::string> options);
  static ParamSpec boolean(std::string name);

  /// Fluent constraint builders (return *this for chaining).
  ParamSpec& divides(std::string parent);
  ParamSpec& active_when(std::string parent, double value = 1.0);

  /// True when this spec carries any mixed/conditional structure.
  bool constrained() const {
    return !levels.empty() || !divides_parent.empty() ||
           !active_parent.empty();
  }
};

/// Canonical configuration: one double per parameter (see file comment).
using Config = std::vector<double>;

/// An ordered set of parameter specs with unit-cube encoding.
///
/// Construction validates every spec (well-formed ranges — including the
/// degenerate single-option enum and min==max integer cases — and, for
/// constrained specs, that parents exist EARLIER in the list and have a
/// type the constraint makes sense for), so encode/decode can never divide
/// by a zero-width range at use time.
class ParameterSpace {
 public:
  ParameterSpace() = default;
  explicit ParameterSpace(std::vector<ParamSpec> specs);

  std::size_t size() const { return specs_.size(); }
  const ParamSpec& spec(std::size_t i) const { return specs_.at(i); }
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// Index of the named parameter, or npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of(const std::string& name) const;
  bool has(const std::string& name) const { return index_of(name) != npos; }

  /// Canonical value of the named parameter in `config`, or `fallback` if
  /// the space does not include it. This is how the PD tool reads optional
  /// parameters (different benchmarks tune different subsets).
  double value_or(const Config& config, const std::string& name,
                  double fallback) const;

  /// Maps a unit-cube point to a FEASIBLE canonical config (quantizing
  /// discrete types), rejection-free. Unit coordinates are clamped to
  /// [0, 1]. Parents decode first (specs are parent-ordered by
  /// construction); a divisibility-constrained child maps its coordinate
  /// over the divisors of the decoded parent value intersected with its
  /// domain; inactive parameters are imputed at their canonical value.
  Config decode(const linalg::Vector& unit) const;

  /// Maps a canonical config to the unit cube (discrete types land on their
  /// level midpoints, so encode(decode(u)) is idempotent).
  linalg::Vector encode(const Config& config) const;

  /// Validates a canonical config (bounds, integrality, level membership);
  /// throws std::invalid_argument on the first violation. Does not check
  /// cross-parameter constraints — that is is_feasible()'s job.
  void validate(const Config& config) const;

  /// Human-readable value of parameter i ("HIGH", "TRUE", "0.85", "1050").
  std::string format_value(std::size_t i, double canonical) const;

  /// Number of representable values of parameter i (0 = continuous).
  std::size_t cardinality(std::size_t i) const;

  // ---- Mixed/conditional layer (no-ops on unconstrained legacy spaces) ----

  /// True when any spec carries levels / divides / active_when structure.
  /// Legacy continuous spaces return false and never enter the mixed-space
  /// code paths.
  bool has_constraints() const { return has_constraints_; }

  /// The canonical (imputation) value of parameter i: its lowest level.
  /// Inactive parameters hold this value in canonical form.
  double canonical_value(std::size_t i) const;

  /// True iff `config` is a realizable design point: in-domain per
  /// parameter, every active divisibility constraint holds, and every
  /// inactive parameter sits at its canonical value (i.e. the config is in
  /// canonical form). Never throws.
  bool is_feasible(const Config& config) const;

 private:
  double decode_dim(std::size_t i, double u) const;
  bool dim_in_domain(std::size_t i, double v) const;

  std::vector<ParamSpec> specs_;
  std::vector<std::size_t> divides_index_;  ///< per-spec parent index or npos
  std::vector<std::size_t> active_index_;   ///< per-spec gate index or npos
  bool has_constraints_ = false;
};

}  // namespace ppat::flow
