// MLCAD'19 baseline [6]: "CAD tool design space exploration via Bayesian
// optimization" — classical BO with the lower confidence bound (LCB)
// acquisition function.
//
// The original is a single-objective BO flow; for multiple QoR metrics it
// minimizes a fixed equal-weight sum of the normalized per-objective LCB
// scores (mu - kappa * sigma) — the straightforward "classical BO" reading.
// The method uses only target-task data (no transfer) and runs to a fixed
// evaluation budget; its answer is the Pareto front of everything it
// evaluated.
#pragma once

#include <cstdint>

#include "tuner/problem.hpp"

namespace ppat::baselines {

struct Mlcad19Options {
  std::size_t budget = 400;     ///< total tool runs (the paper's fixed cost)
  std::size_t batch_size = 5;   ///< selections per model update
  double kappa = 2.0;           ///< LCB exploration weight
  double init_fraction = 0.01;
  std::size_t min_init = 8;
  std::size_t refit_every = 5;  ///< refit cadence in rounds (> 0)
  std::uint64_t seed = 1;
};

tuner::TuningResult run_mlcad19(tuner::CandidatePool& pool,
                                const Mlcad19Options& options);

}  // namespace ppat::baselines
