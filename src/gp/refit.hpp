// The hyper-parameter refit of the exact-GP engine (gp::ExactGp).
//
// A refit is split into prepare (serial RNG draws: the NLL subsample and one
// perturbed start per restart, made by each model's prepare_refit) and
// execute (the deterministic search). This file holds the one copy of
//   * the subsample draw and the multi-start origin list,
//   * the multi-start Nelder-Mead minimization,
//   * the NLL — parameter-range reject, joint Gram, jittered Cholesky,
//     value — and the ExactGp::execute_refit skeleton around it
//     (refit.cpp).
//
// The winner is chosen by one ordered scan (incumbent first, then starts in
// plan order, strict <), so the fitted hyper-parameters are a pure function
// of (objective, plan). Journal replay (DESIGN.md §11) depends on this.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/neldermead.hpp"

namespace ppat::gp {

/// Draws the NLL subsample: identity when total <= cap, else `cap` distinct
/// indices from the shared RNG (sorted when `sorted`; the transfer GP sorts
/// so the joint subset preserves source-block ordering, the plain GP keeps
/// draw order — both bit-frozen by journal replay).
std::vector<std::size_t> refit_subset(common::Rng& rng, std::size_t total,
                                      std::size_t cap, bool sorted);

/// Builds the multi-start origin list: starts[0] is `current` (the incumbent
/// hyper-parameters); each later start is `current` plus one N(0, 1) draw
/// per coordinate.
std::vector<linalg::Vector> refit_starts(common::Rng& rng,
                                         const linalg::Vector& current,
                                         std::size_t restarts);

struct MultiStartResult {
  linalg::Vector x;
  double f = std::numeric_limits<double>::infinity();
};

/// Minimizes `objective` from every start in order, keeping the incumbent
/// `current` as the value to beat.
MultiStartResult minimize_multistart(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& current, const std::vector<linalg::Vector>& starts,
    const linalg::NelderMeadOptions& nm);

/// Gaussian negative log likelihood 0.5 y.alpha + 0.5 log|K| + 0.5 n log 2pi
/// of targets `ys` given alpha = K^-1 ys and log|K|.
double gaussian_nll(const linalg::Vector& ys, const linalg::Vector& alpha,
                    double log_det);

}  // namespace ppat::gp
