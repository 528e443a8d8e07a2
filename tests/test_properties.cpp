// Cross-module property tests over randomized structures: STA monotonicity
// on random DAGs, optimizer structural invariants on random designs, GP
// posterior contraction, and 4-D hypervolume consistency (exercising the
// recursive slicing path beyond the 3-D cases used elsewhere).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "pareto/pareto.hpp"
#include "predict_one.hpp"
#include "sta/optimizer.hpp"

namespace ppat {
namespace {

/// Random combinational DAG over the default library: each new gate reads
/// from earlier nets, with a final DFF layer so FF endpoints exist.
netlist::Netlist random_design(const netlist::CellLibrary& lib,
                               std::size_t gates, common::Rng& rng) {
  netlist::Netlist nl(&lib);
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < 4; ++i) nets.push_back(nl.add_primary_input());
  const netlist::CellFunction funcs[] = {
      netlist::CellFunction::kInv,  netlist::CellFunction::kNand2,
      netlist::CellFunction::kNor2, netlist::CellFunction::kXor2,
      netlist::CellFunction::kAoi21};
  for (std::size_t g = 0; g < gates; ++g) {
    const auto f = funcs[rng.next_below(5)];
    const auto cell =
        lib.find(f, static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(lib.drive_levels(f)))));
    const std::size_t arity = lib.cell(cell).num_inputs;
    std::vector<netlist::NetId> fanins;
    for (std::size_t p = 0; p < arity; ++p) {
      fanins.push_back(nets[rng.next_below(nets.size())]);
    }
    nets.push_back(nl.instance(nl.add_instance(cell, fanins)).fanout);
  }
  // Register the last few nets.
  const auto dff = lib.find(netlist::CellFunction::kDff, 0);
  for (int i = 0; i < 3; ++i) {
    nl.add_instance(dff, {nets[nets.size() - 1 - i]});
  }
  nl.mark_primary_output(nets.back());
  return nl;
}

class RandomDesign : public ::testing::TestWithParam<int> {};

TEST_P(RandomDesign, StaArrivalsAreCausal) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto lib = netlist::CellLibrary::make_default();
  const auto nl = random_design(lib, 60, rng);
  nl.validate();

  sta::WireParasitics wires;
  wires.res_kohm.assign(nl.num_nets(), 0.02);
  wires.cap_ff.assign(nl.num_nets(), 1.0);
  const auto report = sta::run_sta(nl, wires, sta::TimingOptions{});

  // Causality: every combinational gate's output arrives strictly after
  // each of its inputs.
  for (netlist::InstanceId i = 0; i < nl.num_instances(); ++i) {
    if (nl.is_sequential(i)) continue;
    for (netlist::NetId fanin : nl.instance(i).fanins) {
      EXPECT_GT(report.arrival_ns[nl.instance(i).fanout],
                report.arrival_ns[fanin]);
    }
  }
  // Critical delay is the max over all arrivals at endpoints, hence at
  // least the max net arrival feeding any FF.
  EXPECT_GT(report.critical_delay_ns, 0.0);
}

TEST_P(RandomDesign, OptimizerPreservesInvariants) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto lib = netlist::CellLibrary::make_default();
  auto nl = random_design(lib, 80, rng);

  std::vector<double> x(nl.num_instances()), y(nl.num_instances());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 120.0);
    y[i] = rng.uniform(0.0, 120.0);
  }
  std::vector<double> hpwl(nl.num_nets());
  for (auto& h : hpwl) h = rng.uniform(0.0, 80.0);

  sta::OptimizerOptions opt;
  opt.limits.max_fanout = 4;
  opt.limits.max_transition_ns = 0.08;
  opt.limits.max_capacitance_ff = 12.0;
  opt.limits.max_length_um = 50.0;
  opt.max_repair_passes = 4;
  opt.sizing_passes = 2;
  const auto result =
      sta::optimize(nl, x, y, hpwl, sta::TimingOptions{}, opt);

  // Structural invariants hold regardless of what was repaired.
  nl.validate();
  EXPECT_EQ(x.size(), nl.num_instances());
  EXPECT_EQ(y.size(), nl.num_instances());
  EXPECT_EQ(hpwl.size(), nl.num_nets());
  // Fanout caps are hard guarantees after enough passes.
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_LE(nl.net(n).sinks.size(), 2 * opt.limits.max_fanout);
  }
  EXPECT_TRUE(std::isfinite(result.final_timing.critical_delay_ns));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesign, ::testing::Range(1, 7));

TEST(GpPosterior, VarianceContractsWithData) {
  common::Rng rng(42);
  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
  model.fit({{0.0}, {1.0}}, {0.0, 1.0});
  const linalg::Vector probe = {0.5};
  double prev = testing::predict_one(model, probe).variance;
  for (int i = 0; i < 6; ++i) {
    const double x = rng.uniform01();
    model.add_observation({x}, x);
    const double now = testing::predict_one(model, probe).variance;
    EXPECT_LE(now, prev + 1e-9) << "observation " << i;
    prev = now;
  }
}

TEST(Hypervolume4D, MatchesProductStructure) {
  // Points differing only in the first two coordinates, constant in the
  // last two: HV factorizes into (2-D staircase) x (slab) x (slab).
  const std::vector<pareto::Point> p2 = {{1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}};
  std::vector<pareto::Point> p4;
  for (const auto& p : p2) p4.push_back({p[0], p[1], 2.0, 1.0});
  const double hv2 = pareto::hypervolume(p2, {4.0, 4.0});
  const double hv4 = pareto::hypervolume(p4, {4.0, 4.0, 5.0, 4.0});
  EXPECT_NEAR(hv4, hv2 * 3.0 * 3.0, 1e-9);
}

TEST(Hypervolume4D, RandomMonotonicity) {
  common::Rng rng(7);
  std::vector<pareto::Point> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({rng.uniform01(), rng.uniform01(), rng.uniform01(),
                   rng.uniform01()});
  }
  const pareto::Point ref(4, 1.2);
  const double base = pareto::hypervolume(pts, ref);
  EXPECT_GT(base, 0.0);
  // Improving any single point (componentwise) cannot reduce HV.
  auto improved = pts;
  for (double& v : improved[3]) v *= 0.5;
  EXPECT_GE(pareto::hypervolume(improved, ref) + 1e-12, base);
  // Order invariance.
  rng.shuffle(pts);
  EXPECT_NEAR(pareto::hypervolume(pts, ref), base, 1e-9);
}

}  // namespace
}  // namespace ppat
