// Test-only CandidatePool decorator that records every reveal the tuner
// asks for, batch by batch, so tests can assert the exact selection order.
#pragma once

#include <vector>

#include "tuner/problem.hpp"

namespace ppat::testing {

/// Forwards every call to `inner` and records each reveal_batch call's
/// indices as one batch.
class RecordingPool final : public tuner::CandidatePool {
 public:
  explicit RecordingPool(tuner::CandidatePool& inner) : inner_(inner) {}

  std::size_t size() const override { return inner_.size(); }
  std::size_t num_objectives() const override {
    return inner_.num_objectives();
  }
  const std::vector<linalg::Vector>& encoded() const override {
    return inner_.encoded();
  }
  const std::vector<std::size_t>& objectives() const override {
    return inner_.objectives();
  }
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) override {
    batches_.push_back(indices);
    return inner_.reveal_batch(indices, on_outcome);
  }
  bool is_revealed(std::size_t i) const override {
    return inner_.is_revealed(i);
  }
  std::size_t runs() const override { return inner_.runs(); }
  std::size_t failed_evaluations() const override {
    return inner_.failed_evaluations();
  }

  const std::vector<std::vector<std::size_t>>& batches() const {
    return batches_;
  }
  /// Every revealed index, in reveal order.
  std::vector<std::size_t> revealed() const {
    std::vector<std::size_t> all;
    for (const auto& batch : batches_) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  }

 private:
  tuner::CandidatePool& inner_;
  std::vector<std::vector<std::size_t>> batches_;
};

}  // namespace ppat::testing
