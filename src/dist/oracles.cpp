#include "dist/oracles.hpp"

#include <cmath>
#include <thread>

#include "flow/benchmark.hpp"
#include "hls/systolic.hpp"
#include "journal/journal.hpp"
#include "netlist/mac_generator.hpp"

namespace ppat::dist {

SyntheticOracle::SyntheticOracle(std::uint64_t seed,
                                 std::chrono::milliseconds sleep)
    : tilt_(0.04 * static_cast<double>(seed % 11)), sleep_(sleep) {}

flow::QoR SyntheticOracle::evaluate(const flow::ParameterSpace& space,
                                    const flow::Config& config) {
  ++runs_;
  if (sleep_.count() > 0) std::this_thread::sleep_for(sleep_);
  const linalg::Vector u = space.encode(config);
  const double u0 = u.empty() ? 0.0 : u[0];
  const double u1 = u.size() > 1 ? u[1] : 0.0;
  const double u2 = u.size() > 2 ? u[2] : 0.0;
  flow::QoR q;
  q.area_um2 =
      120.0 * (1.2 - 0.7 * u0 + 0.25 * std::cos(2.0 * u1) + tilt_ * u2);
  q.power_mw =
      8.0 * (1.0 + 0.9 * u0 - 0.5 * u2 + tilt_ * std::sin(3.0 * u1));
  q.delay_ns = 0.8 + 1.1 * u1 + 0.2 * std::cos(5.0 * u0) + tilt_ * 0.2 * u2;
  return q;
}

flow::ParameterSpace unit_cube_space(std::size_t dim) {
  std::vector<flow::ParamSpec> specs;
  specs.reserve(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    // Built construct-then-append: GCC 12 at -O3 reports a false overlap
    // (-Wrestrict) inside `"u" + std::to_string(i)`.
    std::string name = "u";
    name += std::to_string(i);
    specs.push_back(flow::ParamSpec::real(name, 0.0, 1.0));
  }
  return flow::ParameterSpace(std::move(specs));
}

std::optional<NamedOracle> make_named_oracle(
    const std::string& name, std::uint64_t seed, std::size_t dim,
    std::chrono::milliseconds synthetic_sleep) {
  if (name == "synthetic") {
    NamedOracle out;
    out.space = unit_cube_space(dim == 0 ? 3 : dim);
    out.oracle = std::make_unique<SyntheticOracle>(seed, synthetic_sleep);
    return out;
  }
  if (name == "pdsim") {
    // Shared read-only design/library, one PDTool per caller (run state is
    // per-instance) — the same sharing scheme as ppatuner_serve.
    static const auto library = netlist::CellLibrary::make_default();
    static const auto design = netlist::small_mac_config();
    static const auto space = flow::target2_space();
    if (dim != 0 && dim != space.size()) return std::nullopt;
    NamedOracle out;
    out.space = space;
    out.oracle = std::make_unique<flow::PDTool>(&library, design, seed);
    return out;
  }
  if (name == "hls_small" || name == "hls_large") {
    static const auto small = hls::small_gemm();
    static const auto large = hls::large_gemm();
    static const auto small_space = hls::systolic_space(small);
    static const auto large_space = hls::systolic_space(large);
    const auto& workload = name == "hls_small" ? small : large;
    const auto& space = name == "hls_small" ? small_space : large_space;
    if (dim != 0 && dim != space.size()) return std::nullopt;
    NamedOracle out;
    out.space = space;
    out.oracle = std::make_unique<hls::SystolicOracle>(workload, seed);
    return out;
  }
  return std::nullopt;
}

std::uint64_t config_digest(const flow::Config& config) {
  // Domain-separated seed keeps these digests disjoint from the journal's
  // pool fingerprints even for identical double sequences.
  std::uint64_t h = 0x5050415464696774ull;  // "PPATdigt"
  h = journal::mix_hash(h, config.size());
  return journal::hash_doubles(h, config);
}

}  // namespace ppat::dist
