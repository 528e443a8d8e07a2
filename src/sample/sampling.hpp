// Space-filling sampling of the unit hypercube [0,1)^d.
//
// The paper builds its offline benchmarks with Latin hypercube sampling
// ("the Latin hyper-cube selecting scheme is exploited to choose the
// parameter configuration points", §4.1).
//
// The sampler returns points in the unit cube; mapping to typed tool
// parameters (float/int/enum/bool ranges) is done by flow::ParameterSpace.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace ppat::sample {

/// `n` points of a d-dimensional Latin hypercube design: each dimension's
/// n values land in distinct equal-width strata, jittered uniformly within
/// each stratum, with independently random stratum-to-point assignment per
/// dimension.
std::vector<linalg::Vector> latin_hypercube(std::size_t n, std::size_t d,
                                            common::Rng& rng);

}  // namespace ppat::sample
