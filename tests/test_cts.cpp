#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "netlist/mac_generator.hpp"
#include "power/power.hpp"
#include "sta/sta.hpp"

namespace ppat::power {
namespace {

// The structural clock tree that the flow's closed-form clock model
// (power::clock_tree_power_mw) is calibrated against: a recursive-bipartition
// (H-tree-like) buffered tree over the placed flip-flops. A sink set is split
// at the median of its wider axis until one buffer drives each group, and
// every buffer sits at the centre of what it drives.
constexpr std::size_t kMaxFanout = 12;
constexpr double kBufferInputCapFf = 1.0;
constexpr double kBufferSelfCapFf = 1.2;  // internal + output self-load
constexpr double kFfClockPinCapFf = 0.45;

struct Point {
  double x, y;
};

double manhattan(Point a, Point b) {
  return std::fabs(a.x - b.x) + std::fabs(a.y - b.y);
}

/// Builds the subtree over sinks[begin, end), adds its switched capacitance
/// (wire, driven pins and the buffer's self-load) to `cap_ff`, and returns
/// the subtree buffer's location.
Point build(std::vector<Point>& sinks, std::size_t begin, std::size_t end,
            double& cap_ff) {
  const auto first = sinks.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = sinks.begin() + static_cast<std::ptrdiff_t>(end);
  const std::size_t count = end - begin;
  Point at{0.0, 0.0};
  double wire_um = 0.0;
  if (count <= kMaxFanout) {
    for (auto it = first; it != last; ++it) {
      at.x += it->x;
      at.y += it->y;
    }
    at.x /= static_cast<double>(count);
    at.y /= static_cast<double>(count);
    for (auto it = first; it != last; ++it) wire_um += manhattan(at, *it);
    cap_ff += static_cast<double>(count) * kFfClockPinCapFf;
  } else {
    const auto [lo_x, hi_x] = std::minmax_element(
        first, last, [](Point a, Point b) { return a.x < b.x; });
    const auto [lo_y, hi_y] = std::minmax_element(
        first, last, [](Point a, Point b) { return a.y < b.y; });
    const bool split_x = (hi_x->x - lo_x->x) >= (hi_y->y - lo_y->y);
    const std::size_t mid = begin + count / 2;
    std::nth_element(first, sinks.begin() + static_cast<std::ptrdiff_t>(mid),
                     last, [split_x](Point a, Point b) {
                       return split_x ? a.x < b.x : a.y < b.y;
                     });
    const Point left = build(sinks, begin, mid, cap_ff);
    const Point right = build(sinks, mid, end, cap_ff);
    at = {0.5 * (left.x + right.x), 0.5 * (left.y + right.y)};
    wire_um = manhattan(at, left) + manhattan(at, right);
    cap_ff += 2.0 * kBufferInputCapFf;
  }
  cap_ff += wire_um * sta::kWireCapFfPerUm + kBufferSelfCapFf;
  return at;
}

/// Switched capacitance of the structural clock tree over the placed flops.
double structural_clock_cap_ff(const netlist::Netlist& nl,
                               const place::Placement& placement) {
  std::vector<Point> sinks;
  for (netlist::InstanceId i = 0; i < nl.num_instances(); ++i) {
    if (nl.is_sequential(i)) sinks.push_back({placement.x[i], placement.y[i]});
  }
  double cap_ff = 0.0;
  build(sinks, 0, sinks.size(), cap_ff);
  return cap_ff;
}

class CtsTest : public ::testing::Test {
 protected:
  CtsTest() : lib_(netlist::CellLibrary::make_default()) {
    netlist::MacConfig cfg;
    cfg.operand_bits = 8;
    cfg.lanes = 4;
    nl_ = std::make_unique<netlist::Netlist>(netlist::generate_mac(lib_, cfg));
    placement_ = place::place(*nl_, place::PlacerOptions{});
  }
  netlist::CellLibrary lib_;
  std::unique_ptr<netlist::Netlist> nl_;
  place::Placement placement_;
};

TEST_F(CtsTest, AnalyticClockModelTracksStructuralTree) {
  // The flow's closed-form clock power is a calibrated stand-in for the
  // structural tree; the two must agree within a small factor at matched
  // conditions.
  PowerOptions popt;
  popt.clock_freq_ghz = 1.0;
  const double analytic = clock_tree_power_mw(
      nl_->num_sequential(), placement_.die_width_um, popt);
  // alpha * C * V^2 * f with the clock's two toggles per cycle (alpha = 2)
  // and the usual 1/2 folded in.
  const double structural = structural_clock_cap_ff(*nl_, placement_) *
                            1e-15 * popt.voltage_v * popt.voltage_v * 1e9 *
                            1e3;
  EXPECT_GT(structural, 0.4 * analytic);
  EXPECT_LT(structural, 2.5 * analytic);
}

}  // namespace
}  // namespace ppat::power
