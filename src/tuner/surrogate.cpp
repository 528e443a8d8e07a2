#include "tuner/surrogate.hpp"

#include <stdexcept>

#include "common/parallel.hpp"

namespace ppat::tuner {

void for_each_objective(std::size_t n_obj,
                        const std::function<void(std::size_t)>& f) {
  common::TaskGroup group;
  for (std::size_t k = 0; k < n_obj; ++k) group.run([&f, k] { f(k); });
  group.wait();
}

void refit_models(const std::vector<std::unique_ptr<Surrogate>>& models,
                  common::Rng& rng) {
  for (const auto& m : models) m->prepare_refit(rng);
  for_each_objective(models.size(),
                     [&](std::size_t k) { models[k]->execute_refit(); });
}

std::unique_ptr<gp::Kernel> make_kernel(KernelKind kind) {
  switch (kind) {
    case KernelKind::kSquaredExponential:
      return std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0);
    case KernelKind::kMatern52:
      return std::make_unique<gp::Matern52Kernel>(0.3, 1.0);
  }
  throw std::invalid_argument("make_kernel: unknown kernel kind");
}

std::unique_ptr<gp::Kernel> make_space_kernel(
    const flow::ParameterSpace& space) {
  if (!space.has_constraints()) {
    return make_kernel(KernelKind::kSquaredExponential);
  }
  std::vector<std::uint8_t> categorical(space.size(), 0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const flow::ParamType t = space.spec(i).type;
    categorical[i] =
        (t == flow::ParamType::kEnum || t == flow::ParamType::kBool) ? 1 : 0;
  }
  return std::make_unique<gp::MixedSpaceKernel>(std::move(categorical));
}

GpSurrogate::GpSurrogate(std::unique_ptr<gp::ExactGp> model,
                         std::vector<linalg::Vector> source_xs,
                         linalg::Vector source_ys)
    : model_(std::move(model)),
      source_xs_(std::move(source_xs)),
      source_ys_(std::move(source_ys)) {}

void GpSurrogate::fit(const std::vector<linalg::Vector>& xs,
                      const linalg::Vector& ys) {
  model_->fit(source_xs_, source_ys_, xs, ys);
}

void GpSurrogate::add_observation(const linalg::Vector& x, double y) {
  model_->add_observation(x, y);
}

void GpSurrogate::add_observation_batch(const std::vector<linalg::Vector>& xs,
                                        const linalg::Vector& ys) {
  model_->add_observation_batch(xs, ys);
}

void GpSurrogate::prepare_refit(common::Rng& rng) {
  plan_ = model_->prepare_refit(rng);
  has_plan_ = true;
}

void GpSurrogate::execute_refit() {
  if (!has_plan_) throw std::logic_error("GpSurrogate: prepare_refit first");
  has_plan_ = false;
  model_->execute_refit(plan_);
}

void GpSurrogate::predict_batch(const std::vector<linalg::Vector>& xs,
                                linalg::Vector& means,
                                linalg::Vector& variances) const {
  model_->predict_batch(xs, means, variances);
}

void GpSurrogate::predict_batch_cached(const std::vector<std::size_t>& ids,
                                       const std::vector<linalg::Vector>& xs,
                                       linalg::Vector& means,
                                       linalg::Vector& variances) {
  cache_.predict(*model_, ids, xs, means, variances);
}

TransferGpSurrogate::TransferGpSurrogate(
    std::vector<linalg::Vector> source_xs, linalg::Vector source_ys,
    KernelKind kind)
    : TransferGpSurrogate(std::move(source_xs), std::move(source_ys),
                          make_kernel(kind)) {}

TransferGpSurrogate::TransferGpSurrogate(
    std::vector<linalg::Vector> source_xs, linalg::Vector source_ys,
    std::unique_ptr<gp::Kernel> kernel)
    : GpSurrogate(
          std::make_unique<gp::TransferGaussianProcess>(std::move(kernel)),
          std::move(source_xs), std::move(source_ys)) {}

PlainGpSurrogate::PlainGpSurrogate(KernelKind kind)
    : PlainGpSurrogate(make_kernel(kind)) {}

PlainGpSurrogate::PlainGpSurrogate(std::unique_ptr<gp::Kernel> kernel)
    : GpSurrogate(std::make_unique<gp::GaussianProcess>(std::move(kernel))) {}

SurrogateFactory make_transfer_gp_factory(const SourceData& source,
                                          KernelKind kind) {
  return [source,
          kind](std::size_t objective_index) -> std::unique_ptr<Surrogate> {
    return std::make_unique<TransferGpSurrogate>(
        source.xs, source.ys.at(objective_index), kind);
  };
}

SurrogateFactory make_plain_gp_factory(KernelKind kind) {
  return [kind](std::size_t) -> std::unique_ptr<Surrogate> {
    return std::make_unique<PlainGpSurrogate>(kind);
  };
}

SurrogateFactory default_gp_factory_for(const flow::ParameterSpace& space) {
  if (!space.has_constraints()) {
    // Legacy spaces MUST yield construction-identical surrogates to the
    // plain factory — this branch is what keeps old fingerprints bitwise.
    return make_plain_gp_factory(KernelKind::kSquaredExponential);
  }
  // The kernel prototype is built once and cloned per objective so every
  // surrogate starts from identical hyper-parameters.
  std::shared_ptr<gp::Kernel> proto = make_space_kernel(space);
  return [proto](std::size_t) -> std::unique_ptr<Surrogate> {
    return std::make_unique<PlainGpSurrogate>(proto->clone());
  };
}

SurrogateFactory default_transfer_gp_factory_for(
    const flow::ParameterSpace& space, const SourceData& source) {
  if (!space.has_constraints()) {
    return make_transfer_gp_factory(source, KernelKind::kSquaredExponential);
  }
  std::shared_ptr<gp::Kernel> proto = make_space_kernel(space);
  return [source,
          proto](std::size_t objective_index) -> std::unique_ptr<Surrogate> {
    return std::make_unique<TransferGpSurrogate>(
        source.xs, source.ys.at(objective_index), proto->clone());
  };
}

}  // namespace ppat::tuner
