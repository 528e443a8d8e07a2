// TCAD'19 baseline [12]: "Cross-layer optimization for high speed adders: a
// Pareto driven machine learning approach" — an active learning-based
// Pareto exploration framework.
//
// Reimplemented in the original's spirit: per-objective Gaussian-process
// regressors are refined actively by repeatedly (a) predicting every
// unevaluated configuration, (b) evaluating a batch drawn from the
// *predicted* Pareto front (exploitation), mixed with a small fraction of
// random exploration, until the budget is exhausted. Unlike PPATuner it has
// no historical-task transfer and no uncertainty-region convergence test,
// so it runs to its full budget and can miss front regions its models are
// confidently wrong about.
#pragma once

#include <cstdint>

#include "tuner/problem.hpp"

namespace ppat::baselines {

struct Tcad19Options {
  std::size_t max_runs = 520;
  double init_fraction = 0.02;
  std::size_t min_init = 10;
  std::size_t batch_size = 5;
  double explore_fraction = 0.1;  ///< share of selections taken at random
  std::size_t refit_every = 5;    ///< refit cadence in rounds (> 0)
  std::uint64_t seed = 1;
};

tuner::TuningResult run_tcad19(tuner::CandidatePool& pool,
                               const Tcad19Options& options);

}  // namespace ppat::baselines
