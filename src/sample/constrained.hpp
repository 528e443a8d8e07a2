// Constraint-aware sampling over mixed/conditional parameter spaces.
//
// The unit-cube sampler in sampling.hpp knows nothing about types or
// constraints; this layer composes it with ParameterSpace::decode
// so every emitted design is feasible BY CONSTRUCTION (no rejection loop on
// the constraint check). Discrete quantization can collapse distinct unit
// points onto the same config, so the sampler dedups after decoding and tops
// up from fresh stratified batches until the request is met or the feasible
// set is exhausted.
//
// Lives in its own library target (ppat_sample_constrained): ppat_flow links
// ppat_sample, so this flow-aware layer cannot be part of ppat_sample
// without a dependency cycle.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "flow/parameter.hpp"

namespace ppat::sample {

/// Up to `n` distinct feasible configs via Latin-hypercube batches through
/// decode. Deterministic under `rng`'s seed. Returns fewer than `n` only
/// when the feasible set itself is smaller (dedup exhausts it). Dedup keys
/// are bitwise: decoded configs land exactly on their level values.
std::vector<flow::Config> constrained_lhs(const flow::ParameterSpace& space,
                                          std::size_t n, common::Rng& rng);

}  // namespace ppat::sample
