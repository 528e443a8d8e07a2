// Test-only kernel wrapper that hides the pairwise-statistics cache: it
// forwards every evaluation to the wrapped kernel but reports
// supports_pairwise_cache() == false, so a GP refit over it takes the
// direct-Gram NLL path. Cache-parity tests fit the same data through the
// bare kernel and through this wrapper and require bit-identical results.
#pragma once

#include <memory>
#include <utility>

#include "gp/kernel.hpp"

namespace ppat::testing {

class DirectGramKernel final : public gp::Kernel {
 public:
  explicit DirectGramKernel(std::unique_ptr<gp::Kernel> inner)
      : inner_(std::move(inner)) {}

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override {
    return (*inner_)(a, b);
  }
  std::size_t num_hyperparameters() const override {
    return inner_->num_hyperparameters();
  }
  linalg::Vector hyperparameters() const override {
    return inner_->hyperparameters();
  }
  void set_hyperparameters(const linalg::Vector& log_params) override {
    inner_->set_hyperparameters(log_params);
  }
  std::unique_ptr<gp::Kernel> clone() const override {
    return std::make_unique<DirectGramKernel>(inner_->clone());
  }
  std::string name() const override { return "direct:" + inner_->name(); }
  bool supports_pairwise_cache() const override { return false; }

 private:
  std::unique_ptr<gp::Kernel> inner_;
};

}  // namespace ppat::testing
