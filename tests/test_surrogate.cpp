#include "tuner/surrogate.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ppat::tuner {
namespace {

struct Task {
  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
};

Task sample(double (*f)(double), std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Task t;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform01();
    t.xs.push_back({x});
    t.ys.push_back(f(x));
  }
  return t;
}

double f_src(double x) { return std::cos(4.0 * x); }
double f_tgt(double x) { return std::cos(4.0 * x) - 0.2 * x; }

TEST(PlainGpSurrogate, FitPredictRoundTrip) {
  PlainGpSurrogate s;
  const auto t = sample(f_tgt, 12, 1);
  s.fit(t.xs, t.ys);
  EXPECT_EQ(s.num_target_points(), 12u);
  linalg::Vector means, vars;
  s.predict_batch(t.xs, means, vars);
  for (std::size_t i = 0; i < t.xs.size(); ++i) {
    EXPECT_NEAR(means[i], t.ys[i], 0.05);
    EXPECT_GE(vars[i], 0.0);
  }
}

TEST(PlainGpSurrogate, AddObservationGrows) {
  PlainGpSurrogate s;
  const auto t = sample(f_tgt, 5, 2);
  s.fit(t.xs, t.ys);
  s.add_observation({0.5}, f_tgt(0.5));
  EXPECT_EQ(s.num_target_points(), 6u);
}

TEST(TransferGpSurrogate, CarriesSourceData) {
  const auto src = sample(f_src, 40, 3);
  TransferGpSurrogate s(src.xs, src.ys);
  const auto t = sample(f_tgt, 4, 4);
  s.fit(t.xs, t.ys);
  common::Rng rng(5);
  s.prepare_refit(rng);
  s.execute_refit();
  // With a strongly correlated source, mid-domain prediction should track
  // the target function despite only 4 target points.
  linalg::Vector means, vars;
  std::vector<linalg::Vector> queries;
  for (int i = 0; i < 20; ++i) queries.push_back({i / 19.0});
  s.predict_batch(queries, means, vars);
  double err = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    err += std::fabs(means[i] - f_tgt(queries[i][0]));
  }
  EXPECT_LT(err / 20.0, 0.15);
  EXPECT_GT(s.task_correlation(), 0.2);
}

TEST(SurrogateFactories, ProduceIndependentModels) {
  const auto bench_src = sample(f_src, 30, 6);
  SourceData data;
  data.xs = bench_src.xs;
  data.ys = {bench_src.ys, bench_src.ys};  // two objectives, same values
  auto factory = make_transfer_gp_factory(data);
  auto m0 = factory(0);
  auto m1 = factory(1);
  const auto t = sample(f_tgt, 6, 7);
  m0->fit(t.xs, t.ys);
  m1->fit(t.xs, t.ys);
  m0->add_observation({0.3}, f_tgt(0.3));
  EXPECT_EQ(m0->num_target_points(), 7u);
  EXPECT_EQ(m1->num_target_points(), 6u);  // untouched

  auto plain_factory = make_plain_gp_factory();
  auto p0 = plain_factory(0);
  p0->fit(t.xs, t.ys);
  EXPECT_EQ(p0->num_target_points(), 6u);
}

TEST(SurrogateFactories, ObjectiveIndexSelectsColumn) {
  SourceData data;
  data.xs = {{0.1}, {0.9}};
  data.ys = {{1.0, 2.0}, {100.0, 200.0}};  // objective 1 has a huge scale
  auto factory = make_transfer_gp_factory(data);
  auto m0 = factory(0);
  auto m1 = factory(1);
  // Both fit with a trivial target; predictions should live near their own
  // objective's scale.
  m0->fit({{0.5}}, {1.5});
  m1->fit({{0.5}}, {150.0});
  linalg::Vector mean0, var0, mean1, var1;
  m0->predict_batch({{0.5}}, mean0, var0);
  m1->predict_batch({{0.5}}, mean1, var1);
  EXPECT_LT(std::fabs(mean0[0]), 50.0);
  EXPECT_GT(mean1[0], 50.0);
}

}  // namespace
}  // namespace ppat::tuner
