// Surrogate-model abstraction used by the Pareto active-learning loop.
//
// The tuner models each QoR metric as an independent regressor (paper §2.1:
// "we model each QoR metric as a draw from an independent GP distribution").
// Two surrogates are provided, both through the one exact-GP adapter
// GpSurrogate: the paper's transfer GP (PPATuner) and a plain target-only GP
// (the TCAD'19 and MLCAD'19 baselines and the no-transfer ablation).
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "flow/parameter.hpp"
#include "gp/gp.hpp"
#include "gp/posterior_cache.hpp"
#include "gp/transfer_gp.hpp"
#include "linalg/matrix.hpp"
#include "tuner/problem.hpp"

namespace ppat::tuner {

/// One scalar-output surrogate over unit-cube configuration encodings.
///
/// A hyper-parameter refit is split into a cheap randomized phase
/// (prepare_refit — draws subsamples / restart perturbations from the shared
/// RNG) and an expensive deterministic phase (execute_refit); refit_models
/// schedules both.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Initial fit from target observations (and whatever source data the
  /// implementation was constructed with).
  virtual void fit(const std::vector<linalg::Vector>& xs,
                   const linalg::Vector& ys) = 0;

  /// Incorporates one new target observation (incremental factor update).
  virtual void add_observation(const linalg::Vector& x, double y) = 0;

  /// Incorporates a round's reveals with one posterior solve; bit-identical
  /// to (but cheaper than) adding the points one by one.
  virtual void add_observation_batch(const std::vector<linalg::Vector>& xs,
                                     const linalg::Vector& ys) = 0;

  /// Draws the randomness of the next execute_refit(). Cheap; must be
  /// called from one thread at a time.
  virtual void prepare_refit(common::Rng& rng) = 0;

  /// Runs the refit prepared by the latest prepare_refit(). Deterministic;
  /// distinct surrogates may execute concurrently.
  virtual void execute_refit() = 0;

  /// Posterior mean/variance at many inputs.
  virtual void predict_batch(const std::vector<linalg::Vector>& xs,
                             linalg::Vector& means,
                             linalg::Vector& variances) const = 0;

  /// Posterior over a stable candidate pool: `ids[c]` names `xs[c]`
  /// consistently across rounds, which lets implementations keep
  /// per-candidate solve state between hyper-parameter refits
  /// (gp::PosteriorCache) and serve each round in O(new observations) per
  /// candidate instead of O(observations^2). Results are bit-identical to
  /// predict_batch on the same inputs; the default forwards there and
  /// ignores the ids.
  virtual void predict_batch_cached(const std::vector<std::size_t>& ids,
                                    const std::vector<linalg::Vector>& xs,
                                    linalg::Vector& means,
                                    linalg::Vector& variances) {
    (void)ids;
    predict_batch(xs, means, variances);
  }

  /// Toggles the tiled predict_batch path where the implementation has one
  /// (served values are bit-identical either way). Nothing in the library
  /// calls it; Surrogate decorators outside src/ override it.
  virtual void set_tiled_prediction(bool /*enabled*/) {}

  virtual std::size_t num_target_points() const = 0;
};

/// Runs f(0), ..., f(n_obj - 1) as concurrent tasks on the calling
/// thread's pool (in order on a pool of one). Each task may touch only its
/// own objective's state.
void for_each_objective(std::size_t n_obj,
                        const std::function<void(std::size_t)>& f);

/// Re-learns the hyper-parameters of one surrogate per objective.
/// prepare_refit consumes `rng` serially, in objective order, so the stream
/// is drawn exactly as a sequential refit would draw it; the expensive,
/// deterministic execute_refit halves then run concurrently.
void refit_models(const std::vector<std::unique_ptr<Surrogate>>& models,
                  common::Rng& rng);

/// Factory signature: builds one surrogate per objective.
using SurrogateFactory =
    std::function<std::unique_ptr<Surrogate>(std::size_t objective_index)>;

/// Base covariance choice for the GP surrogates. The paper does not commit
/// to a kernel; squared-exponential is the default, Matern 5/2 the rougher
/// alternative (compared in bench_ablation_kernel).
enum class KernelKind { kSquaredExponential, kMatern52 };

/// Instantiates the chosen kernel with library-default initial
/// hyper-parameters (refined by marginal-likelihood fitting).
std::unique_ptr<gp::Kernel> make_kernel(KernelKind kind);

/// The kernel a space calls for: legacy unconstrained spaces get the
/// default isotropic squared-exponential (byte-compatible with every
/// pre-existing run); constrained/mixed spaces get a MixedSpaceKernel whose
/// categorical mask marks the enum/bool dimensions (integer dims — including
/// factor domains — are ordinal, so they stay on the SE part).
std::unique_ptr<gp::Kernel> make_space_kernel(const flow::ParameterSpace& space);

/// The one exact-GP adapter: a gp::ExactGp model behind the Surrogate
/// interface, with the cross-round posterior cache and the prepared refit
/// plan. Its two public faces differ only in the model they build.
class GpSurrogate : public Surrogate {
 public:
  void fit(const std::vector<linalg::Vector>& xs,
           const linalg::Vector& ys) override;
  void add_observation(const linalg::Vector& x, double y) override;
  void add_observation_batch(const std::vector<linalg::Vector>& xs,
                             const linalg::Vector& ys) override;
  void prepare_refit(common::Rng& rng) override;
  void execute_refit() override;
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means,
                     linalg::Vector& variances) const override;
  void predict_batch_cached(const std::vector<std::size_t>& ids,
                            const std::vector<linalg::Vector>& xs,
                            linalg::Vector& means,
                            linalg::Vector& variances) override;
  void set_tiled_prediction(bool enabled) override {
    model_->set_tiled_prediction(enabled);
  }
  std::size_t num_target_points() const override {
    return model_->num_target_points();
  }

 protected:
  /// Every fit() joins `source_xs`/`source_ys` (copied; empty for the plain
  /// GP) with the target observations.
  explicit GpSurrogate(std::unique_ptr<gp::ExactGp> model,
                       std::vector<linalg::Vector> source_xs = {},
                       linalg::Vector source_ys = {});

  std::unique_ptr<gp::ExactGp> model_;

 private:
  std::vector<linalg::Vector> source_xs_;
  linalg::Vector source_ys_;
  gp::ExactGp::RefitPlan plan_;
  gp::PosteriorCache cache_;
  bool has_plan_ = false;
};

/// Paper's transfer GP over (source data, target observations). Refits use
/// the default gp::TransferFitOptions.
class TransferGpSurrogate final : public GpSurrogate {
 public:
  /// `source_xs`/`source_ys` are the historical task's encoded configs and
  /// golden values for this objective. They are copied.
  TransferGpSurrogate(std::vector<linalg::Vector> source_xs,
                      linalg::Vector source_ys,
                      KernelKind kind = KernelKind::kSquaredExponential);

  /// Explicit-kernel variant (mixed-space runs pass a MixedSpaceKernel).
  TransferGpSurrogate(std::vector<linalg::Vector> source_xs,
                      linalg::Vector source_ys,
                      std::unique_ptr<gp::Kernel> kernel);

  /// Learned inter-task correlation (diagnostic).
  double task_correlation() const {
    return static_cast<const gp::TransferGaussianProcess&>(*model_)
        .task_correlation();
  }
};

/// Target-only GP (no transfer). Refits use the default gp::FitOptions.
class PlainGpSurrogate final : public GpSurrogate {
 public:
  explicit PlainGpSurrogate(
      KernelKind kind = KernelKind::kSquaredExponential);

  /// Explicit-kernel variant (mixed-space runs pass a MixedSpaceKernel).
  explicit PlainGpSurrogate(std::unique_ptr<gp::Kernel> kernel);
};

/// Convenience factories.
SurrogateFactory make_transfer_gp_factory(
    const SourceData& source,
    KernelKind kind = KernelKind::kSquaredExponential);
SurrogateFactory make_plain_gp_factory(
    KernelKind kind = KernelKind::kSquaredExponential);

/// Space-aware default factories. On a legacy unconstrained space these
/// return exactly make_plain_gp_factory() / make_transfer_gp_factory(source)
/// — construction-identical surrogates, so every pre-existing fingerprint is
/// preserved. On a constrained space the surrogates are built around
/// make_space_kernel(space) (mixed kernel, direct-NLL fit path).
SurrogateFactory default_gp_factory_for(const flow::ParameterSpace& space);
SurrogateFactory default_transfer_gp_factory_for(
    const flow::ParameterSpace& space, const SourceData& source);

}  // namespace ppat::tuner
