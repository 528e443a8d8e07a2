// gp::PosteriorCache and the tiled predict_batch panels vs the monolithic
// legacy prediction path: both must be BIT-IDENTICAL to the reference
// (EXPECT_EQ on raw doubles, no tolerance) across the model's whole
// lifecycle — initial fit, rank-1 appends (cache extends cached solves),
// batched appends, and hyper-parameter refits (epoch bump discards the
// cache). This exactness is what lets the tuner enable the fast paths by
// default without perturbing any published number.
#include "gp/posterior_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/transfer_gp.hpp"

namespace ppat::gp {
namespace {

constexpr std::size_t kDims = 3;

double response(const linalg::Vector& x) {
  double y = 0.0;
  for (std::size_t d = 0; d < x.size(); ++d) {
    y += std::sin(2.5 * x[d] + static_cast<double>(d));
  }
  return y;
}

std::vector<linalg::Vector> draw_points(std::size_t n, common::Rng& rng) {
  std::vector<linalg::Vector> xs(n, linalg::Vector(kDims));
  for (auto& x : xs) {
    for (double& v : x) v = rng.uniform01();
  }
  return xs;
}

linalg::Vector responses(const std::vector<linalg::Vector>& xs) {
  linalg::Vector ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = response(xs[i]);
  return ys;
}

template <class Model>
void expect_bitwise_equal_prediction(const Model& model,
                                     const std::vector<linalg::Vector>& xs) {
  linalg::Vector m_ref, v_ref, m_tiled, v_tiled;
  Model& mut = const_cast<Model&>(model);
  mut.set_tiled_prediction(false);
  model.predict_batch(xs, m_ref, v_ref);
  mut.set_tiled_prediction(true);
  model.predict_batch(xs, m_tiled, v_tiled);
  ASSERT_EQ(m_tiled.size(), m_ref.size());
  for (std::size_t i = 0; i < m_ref.size(); ++i) {
    EXPECT_EQ(m_tiled[i], m_ref[i]) << "mean " << i;
    EXPECT_EQ(v_tiled[i], v_ref[i]) << "variance " << i;
  }
}

template <class Model>
void expect_cache_matches(PosteriorCache& cache, const Model& model,
                          const std::vector<std::size_t>& ids,
                          const std::vector<linalg::Vector>& xs) {
  linalg::Vector m_ref, v_ref, m_cache, v_cache;
  model.predict_batch(xs, m_ref, v_ref);
  cache.predict(model, ids, xs, m_cache, v_cache);
  ASSERT_EQ(m_cache.size(), m_ref.size());
  for (std::size_t i = 0; i < m_ref.size(); ++i) {
    EXPECT_EQ(m_cache[i], m_ref[i]) << "mean " << i;
    EXPECT_EQ(v_cache[i], v_ref[i]) << "variance " << i;
  }
}

TEST(TiledPrediction, BitIdenticalToLegacyPlainGp) {
  common::Rng rng(5);
  const auto train = draw_points(40, rng);
  GaussianProcess model(std::make_unique<SquaredExponentialKernel>(0.3, 1.0),
                        1e-4);
  model.fit(train, responses(train));
  // Below and above the parallel-dispatch threshold (2 tiles of 256).
  expect_bitwise_equal_prediction(model, draw_points(100, rng));
  expect_bitwise_equal_prediction(model, draw_points(600, rng));
}

TEST(TiledPrediction, BitIdenticalToLegacyTransferGp) {
  common::Rng rng(6);
  const auto src = draw_points(60, rng);
  const auto tgt = draw_points(25, rng);
  TransferGaussianProcess model(
      std::make_unique<SquaredExponentialKernel>(0.3, 1.0));
  model.fit(src, responses(src), tgt, responses(tgt));
  expect_bitwise_equal_prediction(model, draw_points(100, rng));
  expect_bitwise_equal_prediction(model, draw_points(600, rng));
}

TEST(PosteriorCacheTest, PlainGpLifecycleBitIdentical) {
  common::Rng rng(7);
  const auto train = draw_points(30, rng);
  // 550 candidates: exercises the cache's parallel fan-out (>= 512).
  const auto cands = draw_points(550, rng);
  std::vector<std::size_t> ids(cands.size());
  std::iota(ids.begin(), ids.end(), 0);

  GaussianProcess model(std::make_unique<SquaredExponentialKernel>(0.3, 1.0),
                        1e-4);
  model.fit(train, responses(train));
  PosteriorCache cache;

  // Build.
  expect_cache_matches(cache, model, ids, cands);
  EXPECT_EQ(cache.cached_entries(), cands.size());
  const auto epoch_after_fit = model.posterior_epoch();

  // Rank-1 appends: cached solves extend instead of rebuilding.
  const auto extra = draw_points(3, rng);
  for (const auto& x : extra) model.add_observation(x, response(x));
  EXPECT_EQ(model.posterior_epoch(), epoch_after_fit);
  expect_cache_matches(cache, model, ids, cands);

  // Batched append.
  const auto batch = draw_points(4, rng);
  model.add_observation_batch(batch, responses(batch));
  expect_cache_matches(cache, model, ids, cands);

  // Refit: epoch bumps, cache must discard and rebuild.
  common::Rng fit_rng(3);
  model.optimize_hyperparameters(fit_rng);
  EXPECT_GT(model.posterior_epoch(), epoch_after_fit);
  expect_cache_matches(cache, model, ids, cands);

  // Shrinking the candidate set evicts the absent ids (the tuner's alive
  // set only ever shrinks).
  std::vector<std::size_t> subset_ids(ids.begin(), ids.begin() + 100);
  std::vector<linalg::Vector> subset_xs(cands.begin(), cands.begin() + 100);
  expect_cache_matches(cache, model, subset_ids, subset_xs);
  EXPECT_EQ(cache.cached_entries(), subset_ids.size());
}

TEST(PosteriorCacheTest, TransferGpLifecycleBitIdentical) {
  common::Rng rng(8);
  const auto src = draw_points(50, rng);
  const auto tgt = draw_points(20, rng);
  const auto cands = draw_points(300, rng);
  std::vector<std::size_t> ids(cands.size());
  std::iota(ids.begin(), ids.end(), 0);

  TransferGaussianProcess model(
      std::make_unique<SquaredExponentialKernel>(0.3, 1.0));
  model.fit(src, responses(src), tgt, responses(tgt));
  PosteriorCache cache;

  expect_cache_matches(cache, model, ids, cands);
  const auto epoch_after_fit = model.posterior_epoch();

  const auto extra = draw_points(3, rng);
  for (const auto& x : extra) model.add_observation(x, response(x));
  EXPECT_EQ(model.posterior_epoch(), epoch_after_fit);
  expect_cache_matches(cache, model, ids, cands);

  const auto batch = draw_points(4, rng);
  model.add_observation_batch(batch, responses(batch));
  expect_cache_matches(cache, model, ids, cands);

  common::Rng fit_rng(4);
  TransferFitOptions fit_opt;
  fit_opt.max_evals = 40;  // keep the refit cheap; any refit bumps the epoch
  model.optimize_hyperparameters(fit_rng, fit_opt);
  EXPECT_GT(model.posterior_epoch(), epoch_after_fit);
  expect_cache_matches(cache, model, ids, cands);
}

TEST(PosteriorCacheTest, PanelRebuildsBitIdenticalAtEveryPanelRemainder) {
  // Rebuilds go in panels of up to 64 candidates; counts around the panel
  // width and the 512-candidate fan-out, with a 43-row factor (4-row tiles
  // plus a 3-row remainder). Each round serves a mix: entries cached by an
  // earlier call on a subset (extended after an append) next to stale ones
  // rebuilt in panels.
  common::Rng rng(10);
  const auto train = draw_points(42, rng);
  for (std::size_t count : {1u, 7u, 64u, 65u, 513u}) {
    GaussianProcess model(
        std::make_unique<SquaredExponentialKernel>(0.3, 1.0), 1e-4);
    model.fit(train, responses(train));
    const auto cands = draw_points(count, rng);
    std::vector<std::size_t> ids(count);
    std::iota(ids.begin(), ids.end(), 0);
    std::vector<std::size_t> some_ids;
    std::vector<linalg::Vector> some_xs;
    for (std::size_t c = 0; c < count; c += 3) {
      some_ids.push_back(c);
      some_xs.push_back(cands[c]);
    }
    PosteriorCache cache;
    expect_cache_matches(cache, model, some_ids, some_xs);
    const auto epoch = model.posterior_epoch();
    const auto extra = draw_points(1, rng).front();
    model.add_observation(extra, response(extra));
    ASSERT_EQ(model.posterior_epoch(), epoch);  // cached entries stay live
    ASSERT_EQ(model.factor().size(), 43u);
    expect_cache_matches(cache, model, ids, cands);
    EXPECT_EQ(cache.cached_entries(), count);
    // Epoch bump: every entry is stale and rebuilt in panels.
    common::Rng fit_rng(11);
    FitOptions fit_opt;
    fit_opt.restarts = 1;
    fit_opt.max_evals = 20;
    model.optimize_hyperparameters(fit_rng, fit_opt);
    ASSERT_GT(model.posterior_epoch(), epoch);
    expect_cache_matches(cache, model, ids, cands);
  }
}

TEST(PosteriorCacheTest, ExtendSolveLowerMatchesFullSolve) {
  // The cholesky primitive the cache is built on: growing a solution row by
  // row across append_row calls lands on the same bits as one full
  // solve_lower_multi pass over the final system.
  common::Rng rng(9);
  const auto train = draw_points(24, rng);
  SquaredExponentialKernel kernel(0.3, 1.0);
  linalg::Matrix gram = kernel.gram(train);
  for (std::size_t i = 0; i < train.size(); ++i) gram(i, i) += 1e-4;
  auto factor = linalg::CholeskyFactor::compute(gram);
  ASSERT_TRUE(factor.has_value());

  const auto probe = draw_points(1, rng).front();
  linalg::Vector b(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) b[i] = kernel(train[i], probe);

  linalg::Matrix b_col(train.size(), 1);
  for (std::size_t i = 0; i < train.size(); ++i) b_col(i, 0) = b[i];
  const linalg::Matrix v_full = factor->solve_lower_multi(b_col);

  linalg::Vector v_grown;
  std::span<const double> all(b);
  factor->extend_solve_lower(v_grown, all.subspan(0, 10));
  factor->extend_solve_lower(v_grown, all.subspan(10, 1));
  factor->extend_solve_lower(v_grown, all.subspan(11));
  ASSERT_EQ(v_grown.size(), train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(v_grown[i], v_full(i, 0)) << "row " << i;
  }
}

}  // namespace
}  // namespace ppat::gp
