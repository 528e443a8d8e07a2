// Shared refit machinery for GaussianProcess and TransferGaussianProcess.
//
// Both models split a hyper-parameter refit into prepare (serial RNG draws:
// the NLL subsample and one perturbed start per restart) and execute (the
// deterministic search). These helpers are the single source of truth for
//   * the subsample draw,
//   * the multi-start origin list, and
//   * the multi-start Nelder-Mead minimization itself.
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
/// draw order — both inherited from the original implementations and
/// bit-frozen by journal replay).
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

}  // namespace ppat::gp
