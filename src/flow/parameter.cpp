#include "flow/parameter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/table.hpp"

namespace ppat::flow {

namespace {

bool nearly_equal(double a, double b) { return std::fabs(a - b) <= 1e-9; }

bool is_integral(double v) { return nearly_equal(v, std::round(v)); }

}  // namespace

ParamSpec ParamSpec::real(std::string name, double min_value,
                          double max_value) {
  if (!(min_value < max_value)) {
    throw std::invalid_argument("ParamSpec::real: empty range for " + name);
  }
  ParamSpec s;
  s.name = std::move(name);
  s.type = ParamType::kFloat;
  s.min_value = min_value;
  s.max_value = max_value;
  return s;
}

ParamSpec ParamSpec::integer(std::string name, int min_value, int max_value) {
  if (min_value > max_value) {
    throw std::invalid_argument("ParamSpec::integer: empty range for " + name);
  }
  ParamSpec s;
  s.name = std::move(name);
  s.type = ParamType::kInt;
  s.min_value = min_value;
  s.max_value = max_value;
  return s;
}

ParamSpec ParamSpec::integer_levels(std::string name,
                                    std::vector<long> values) {
  if (values.empty()) {
    throw std::invalid_argument("ParamSpec::integer_levels: empty domain for " +
                                name);
  }
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i - 1] >= values[i]) {
      throw std::invalid_argument(
          "ParamSpec::integer_levels: values must be strictly increasing "
          "for " +
          name);
    }
  }
  ParamSpec s;
  s.name = std::move(name);
  s.type = ParamType::kInt;
  s.levels.reserve(values.size());
  for (long v : values) s.levels.push_back(static_cast<double>(v));
  s.min_value = s.levels.front();
  s.max_value = s.levels.back();
  return s;
}

ParamSpec ParamSpec::factors(std::string name, long n) {
  if (n < 1) {
    throw std::invalid_argument("ParamSpec::factors: need n >= 1 for " + name);
  }
  std::vector<long> divisors;
  for (long d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      divisors.push_back(d);
      if (d != n / d) divisors.push_back(n / d);
    }
  }
  std::sort(divisors.begin(), divisors.end());
  return integer_levels(std::move(name), std::move(divisors));
}

ParamSpec ParamSpec::enumeration(std::string name,
                                 std::vector<std::string> options) {
  if (options.empty()) {
    throw std::invalid_argument("ParamSpec::enumeration: need >= 1 option");
  }
  ParamSpec s;
  s.name = std::move(name);
  s.type = ParamType::kEnum;
  s.min_value = 0.0;
  s.max_value = static_cast<double>(options.size() - 1);
  s.options = std::move(options);
  return s;
}

ParamSpec ParamSpec::boolean(std::string name) {
  ParamSpec s;
  s.name = std::move(name);
  s.type = ParamType::kBool;
  s.min_value = 0.0;
  s.max_value = 1.0;
  return s;
}

ParamSpec& ParamSpec::divides(std::string parent) {
  divides_parent = std::move(parent);
  return *this;
}

ParamSpec& ParamSpec::active_when(std::string parent, double value) {
  active_parent = std::move(parent);
  active_value = value;
  return *this;
}

ParameterSpace::ParameterSpace(std::vector<ParamSpec> specs)
    : specs_(std::move(specs)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    for (std::size_t j = i + 1; j < specs_.size(); ++j) {
      if (specs_[i].name == specs_[j].name) {
        throw std::invalid_argument("ParameterSpace: duplicate parameter " +
                                    specs_[i].name);
      }
    }
  }

  // Per-spec well-formedness. This is what makes the degenerate cases safe:
  // a zero-width float range or an empty enum can no longer reach the
  // encode() divide — construction rejects them up front. (Single-option
  // enums and min==max integers are legal: their cardinality is 1 and the
  // discrete level-midpoint arithmetic handles them exactly.)
  divides_index_.assign(specs_.size(), npos);
  active_index_.assign(specs_.size(), npos);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    ParamSpec& s = specs_[i];
    if (s.name.empty()) {
      throw std::invalid_argument("ParameterSpace: unnamed parameter");
    }
    if (!std::isfinite(s.min_value) || !std::isfinite(s.max_value)) {
      throw std::invalid_argument("ParameterSpace: non-finite range for " +
                                  s.name);
    }
    switch (s.type) {
      case ParamType::kFloat:
        if (!(s.min_value < s.max_value)) {
          throw std::invalid_argument(
              "ParameterSpace: float parameter " + s.name +
              " needs min < max (zero-width ranges cannot be encoded)");
        }
        if (!s.levels.empty() || !s.divides_parent.empty()) {
          throw std::invalid_argument(
              "ParameterSpace: levels/divides only apply to integer "
              "parameter, not float " +
              s.name);
        }
        break;
      case ParamType::kInt:
        if (!s.levels.empty()) {
          for (std::size_t k = 0; k < s.levels.size(); ++k) {
            if (!is_integral(s.levels[k]) ||
                (k > 0 && s.levels[k - 1] >= s.levels[k])) {
              throw std::invalid_argument(
                  "ParameterSpace: levels of " + s.name +
                  " must be strictly increasing integers");
            }
          }
          s.min_value = s.levels.front();
          s.max_value = s.levels.back();
        } else if (s.min_value > s.max_value || !is_integral(s.min_value) ||
                   !is_integral(s.max_value)) {
          throw std::invalid_argument(
              "ParameterSpace: integer parameter " + s.name +
              " needs an integral min <= max range");
        }
        break;
      case ParamType::kEnum:
        if (s.options.empty()) {
          throw std::invalid_argument("ParameterSpace: enum parameter " +
                                      s.name + " needs >= 1 option");
        }
        s.min_value = 0.0;
        s.max_value = static_cast<double>(s.options.size() - 1);
        if (!s.levels.empty() || !s.divides_parent.empty()) {
          throw std::invalid_argument(
              "ParameterSpace: levels/divides only apply to integer "
              "parameter, not enum " +
              s.name);
        }
        break;
      case ParamType::kBool:
        s.min_value = 0.0;
        s.max_value = 1.0;
        if (!s.levels.empty() || !s.divides_parent.empty()) {
          throw std::invalid_argument(
              "ParameterSpace: levels/divides only apply to integer "
              "parameter, not bool " +
              s.name);
        }
        break;
    }

    // Cross-parameter structure. Parents must appear EARLIER in the spec
    // list — this both rejects cycles and gives every traversal below a
    // ready-made topological order.
    if (!s.divides_parent.empty()) {
      const std::size_t p = index_of(s.divides_parent);
      if (p == npos || p >= i) {
        throw std::invalid_argument(
            "ParameterSpace: divides parent of " + s.name +
            " must be an earlier parameter (got " + s.divides_parent + ")");
      }
      if (specs_[p].type != ParamType::kInt) {
        throw std::invalid_argument("ParameterSpace: divides parent " +
                                    s.divides_parent + " of " + s.name +
                                    " must be an integer parameter");
      }
      // The rejection-free sampling guarantee: 1 divides every parent
      // value, so the child's feasible set is never empty.
      const bool has_one = s.levels.empty()
                               ? (s.min_value <= 1.0 && 1.0 <= s.max_value)
                               : std::any_of(s.levels.begin(), s.levels.end(),
                                             [](double v) {
                                               return nearly_equal(v, 1.0);
                                             });
      if (!has_one) {
        throw std::invalid_argument(
            "ParameterSpace: domain of divisibility-constrained " + s.name +
            " must contain 1");
      }
      divides_index_[i] = p;
    }
    if (!s.active_parent.empty()) {
      const std::size_t p = index_of(s.active_parent);
      if (p == npos || p >= i) {
        throw std::invalid_argument(
            "ParameterSpace: activation parent of " + s.name +
            " must be an earlier parameter (got " + s.active_parent + ")");
      }
      if (specs_[p].type == ParamType::kFloat) {
        throw std::invalid_argument("ParameterSpace: activation parent " +
                                    s.active_parent + " of " + s.name +
                                    " must be discrete");
      }
      if (!is_integral(s.active_value)) {
        throw std::invalid_argument(
            "ParameterSpace: activation value of " + s.name +
            " must be integral (discrete parent)");
      }
      active_index_[i] = p;
    }
    if (s.constrained()) has_constraints_ = true;
  }
}

std::size_t ParameterSpace::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return i;
  }
  return npos;
}

double ParameterSpace::value_or(const Config& config, const std::string& name,
                                double fallback) const {
  const std::size_t i = index_of(name);
  if (i == npos) return fallback;
  return config.at(i);
}

std::size_t ParameterSpace::cardinality(std::size_t i) const {
  const ParamSpec& s = specs_.at(i);
  switch (s.type) {
    case ParamType::kFloat:
      return 0;
    case ParamType::kInt:
      if (!s.levels.empty()) return s.levels.size();
      return static_cast<std::size_t>(s.max_value - s.min_value) + 1;
    case ParamType::kEnum:
      return s.options.size();
    case ParamType::kBool:
      return 2;
  }
  return 0;
}

double ParameterSpace::decode_dim(std::size_t i, double u) const {
  const ParamSpec& s = specs_[i];
  if (s.type == ParamType::kFloat) {
    return s.min_value + u * (s.max_value - s.min_value);
  }
  // Discrete: split [0,1] into `card` equal cells.
  const std::size_t card = cardinality(i);
  std::size_t level = static_cast<std::size_t>(u * static_cast<double>(card));
  level = std::min(level, card - 1);
  if (!s.levels.empty()) return s.levels[level];
  return s.min_value + static_cast<double>(level);
}

linalg::Vector ParameterSpace::encode(const Config& config) const {
  if (config.size() != specs_.size()) {
    throw std::invalid_argument("ParameterSpace::encode: dimension mismatch");
  }
  linalg::Vector unit(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const ParamSpec& s = specs_[i];
    if (s.type == ParamType::kFloat) {
      unit[i] = (config[i] - s.min_value) / (s.max_value - s.min_value);
    } else {
      // Level midpoint, so encode(decode(u)) maps into the same cell.
      const std::size_t card = cardinality(i);
      double level;
      if (!s.levels.empty()) {
        // Nearest explicit level (exact membership is checked by validate).
        std::size_t best = 0;
        for (std::size_t k = 1; k < s.levels.size(); ++k) {
          if (std::fabs(config[i] - s.levels[k]) <
              std::fabs(config[i] - s.levels[best])) {
            best = k;
          }
        }
        level = static_cast<double>(best);
      } else {
        level = config[i] - s.min_value;
      }
      unit[i] = (level + 0.5) / static_cast<double>(card);
    }
    unit[i] = std::clamp(unit[i], 0.0, 1.0);
  }
  return unit;
}

void ParameterSpace::validate(const Config& config) const {
  if (config.size() != specs_.size()) {
    throw std::invalid_argument("ParameterSpace::validate: dim mismatch");
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const ParamSpec& s = specs_[i];
    const double v = config[i];
    if (v < s.min_value - 1e-9 || v > s.max_value + 1e-9) {
      throw std::invalid_argument("parameter " + s.name + " out of range");
    }
    if (s.type != ParamType::kFloat &&
        std::fabs(v - std::round(v)) > 1e-9) {
      throw std::invalid_argument("parameter " + s.name +
                                  " must be integral");
    }
    if (!s.levels.empty() &&
        std::none_of(s.levels.begin(), s.levels.end(),
                     [v](double lv) { return nearly_equal(lv, v); })) {
      throw std::invalid_argument("parameter " + s.name +
                                  " not in its level set");
    }
  }
}

std::string ParameterSpace::format_value(std::size_t i,
                                         double canonical) const {
  const ParamSpec& s = specs_.at(i);
  switch (s.type) {
    case ParamType::kFloat:
      return common::fmt_fixed(canonical, 3);
    case ParamType::kInt:
      return std::to_string(static_cast<long long>(std::llround(canonical)));
    case ParamType::kEnum:
      return s.options.at(static_cast<std::size_t>(std::llround(canonical)));
    case ParamType::kBool:
      return std::llround(canonical) != 0 ? "TRUE" : "FALSE";
  }
  return "?";
}

bool ParameterSpace::dim_in_domain(std::size_t i, double v) const {
  const ParamSpec& s = specs_[i];
  if (v < s.min_value - 1e-9 || v > s.max_value + 1e-9) return false;
  if (s.type != ParamType::kFloat && !is_integral(v)) return false;
  if (!s.levels.empty() &&
      std::none_of(s.levels.begin(), s.levels.end(),
                   [v](double lv) { return nearly_equal(lv, v); })) {
    return false;
  }
  return true;
}

double ParameterSpace::canonical_value(std::size_t i) const {
  const ParamSpec& s = specs_.at(i);
  if (!s.levels.empty()) return s.levels.front();
  return s.min_value;
}

bool ParameterSpace::is_feasible(const Config& config) const {
  if (config.size() != specs_.size()) return false;
  std::vector<std::uint8_t> mask(specs_.size(), 1);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!dim_in_domain(i, config[i])) return false;
    const std::size_t gate = active_index_[i];
    if (gate != npos) {
      mask[i] = (mask[gate] != 0 &&
                 nearly_equal(config[gate], specs_[i].active_value))
                    ? 1
                    : 0;
    }
    if (mask[i] == 0) {
      // Canonical form: an inactive parameter must hold its imputed value,
      // so equal designs have equal canonical configs (and fingerprints).
      if (!nearly_equal(config[i], canonical_value(i))) return false;
      continue;
    }
    const std::size_t p = divides_index_[i];
    if (p != npos) {
      const long long child = std::llround(config[i]);
      const long long parent = std::llround(config[p]);
      if (child == 0 || parent % child != 0) return false;
    }
  }
  return true;
}

Config ParameterSpace::decode(const linalg::Vector& unit) const {
  if (unit.size() != specs_.size()) {
    throw std::invalid_argument("ParameterSpace::decode: dimension mismatch");
  }
  Config config(specs_.size());
  std::vector<std::uint8_t> mask(specs_.size(), 1);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const double u = std::clamp(unit[i], 0.0, 1.0);
    const ParamSpec& s = specs_[i];
    const std::size_t gate = active_index_[i];
    if (gate != npos) {
      mask[i] = (mask[gate] != 0 &&
                 nearly_equal(config[gate], s.active_value))
                    ? 1
                    : 0;
    }
    if (mask[i] == 0) {
      config[i] = canonical_value(i);
      continue;
    }
    const std::size_t p = divides_index_[i];
    if (p == npos) {
      config[i] = decode_dim(i, u);
      continue;
    }
    // Divisibility-constrained child: stratify u over the divisors of the
    // (already decoded) parent value within the child's domain. The domain
    // contains 1 (checked at construction), so `feasible` is never empty —
    // sampling is rejection-free by construction.
    const long long parent = std::llround(config[p]);
    std::vector<double> feasible;
    if (!s.levels.empty()) {
      for (double lv : s.levels) {
        const long long v = std::llround(lv);
        if (v != 0 && parent % v == 0) feasible.push_back(lv);
      }
    } else {
      const long long lo = std::llround(s.min_value);
      const long long hi = std::llround(s.max_value);
      for (long long v = lo; v <= hi; ++v) {
        if (v != 0 && parent % v == 0) {
          feasible.push_back(static_cast<double>(v));
        }
      }
    }
    const std::size_t card = feasible.size();
    std::size_t level =
        static_cast<std::size_t>(u * static_cast<double>(card));
    level = std::min(level, card - 1);
    config[i] = feasible[level];
  }
  return config;
}

}  // namespace ppat::flow
