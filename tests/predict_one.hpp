// Test-side single-point posterior: ExactGp::predict_batch over a batch of
// one, returned as one (mean, variance) pair.
#pragma once

#include "gp/exact_gp.hpp"

namespace ppat::testing {

struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
};

inline Prediction predict_one(const gp::ExactGp& model,
                              const linalg::Vector& x) {
  linalg::Vector means, variances;
  model.predict_batch({x}, means, variances);
  return {means[0], variances[0]};
}

}  // namespace ppat::testing
