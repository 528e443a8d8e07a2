// Sweep-based Pareto machinery vs the pairwise/recursive references: the
// fronts and batched dominance queries must match the O(n^2) oracles
// EXACTLY (same indices, same order) including duplicate and tied inputs,
// and the 3-D hypervolume sweep must agree with the recursive slicer to
// rounding. These are the primitives the tuner's per-round decision passes
// are built on, so exactness here is what keeps the fast tuner paths
// bit-identical to the legacy loop.
#include "pareto/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace ppat::pareto {
namespace {

/// Random points with heavy coordinate collisions: rounding to a coarse
/// grid manufactures exact duplicates and per-coordinate ties, the inputs
/// where sweep/reference divergence would hide.
std::vector<Point> gridded_points(std::size_t n, std::size_t d,
                                  common::Rng& rng, double cells) {
  std::vector<Point> pts(n, Point(d));
  for (auto& p : pts) {
    for (double& v : p) v = std::round(rng.uniform01() * cells) / cells;
  }
  return pts;
}

/// The pairwise front: the oracle of pareto_front_indices.
std::vector<std::size_t> pareto_front_indices_reference(
    const std::vector<Point>& points) {
  return nondominated_positions_reference(points, DuplicatePolicy::kFirstOnly);
}

/// The recursive slicer's hypervolume, the oracle of `hypervolume`'s
/// per-dimension dispatch. Constant objectives at 0 with reference depth 1
/// are appended until the dimension is above the input's and at least 4.
/// `hypervolume` sends such input down the slicer, and each added objective
/// is one slab of unit thickness, so the result is the slicer's own volume
/// of the input (ending in its 2-D sweep) bit for bit, whatever route
/// `hypervolume` takes at the input's dimension.
double hypervolume_reference(std::vector<Point> points, Point ref) {
  const std::size_t lifted = std::max<std::size_t>(ref.size() + 1, 4);
  while (ref.size() < lifted) {
    for (Point& p : points) p.push_back(0.0);
    ref.push_back(1.0);
  }
  return hypervolume(points, ref);
}

TEST(ParetoSweeps, FrontMatchesReference2D3D) {
  common::Rng rng(17);
  for (std::size_t d : {2u, 3u}) {
    for (std::size_t n : {0u, 1u, 2u, 7u, 60u, 300u}) {
      for (double cells : {4.0, 1000.0}) {
        const auto pts = gridded_points(n, d, rng, cells);
        for (auto policy :
             {DuplicatePolicy::kKeepAll, DuplicatePolicy::kFirstOnly}) {
          EXPECT_EQ(nondominated_positions(pts, policy),
                    nondominated_positions_reference(pts, policy))
              << "d=" << d << " n=" << n << " cells=" << cells;
        }
        EXPECT_EQ(pareto_front_indices(pts),
                  pareto_front_indices_reference(pts));
      }
    }
  }
}

TEST(ParetoSweeps, DuplicatePolicies) {
  const std::vector<Point> pts = {{1, 1}, {1, 1}, {2, 0}, {0, 2}, {3, 3}};
  // (3,3) is dominated; both copies of (1,1) survive under kKeepAll.
  EXPECT_EQ(nondominated_positions(pts, DuplicatePolicy::kKeepAll),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(nondominated_positions(pts, DuplicatePolicy::kFirstOnly),
            (std::vector<std::size_t>{0, 2, 3}));

  const std::vector<Point> dominated_dups = {{0, 0}, {1, 1}, {1, 1}};
  EXPECT_EQ(nondominated_positions(dominated_dups, DuplicatePolicy::kKeepAll),
            (std::vector<std::size_t>{0}));
}

TEST(ParetoSweeps, FourDimensionsUseReferencePath) {
  common::Rng rng(23);
  const auto pts = gridded_points(80, 4, rng, 6.0);
  for (auto policy :
       {DuplicatePolicy::kKeepAll, DuplicatePolicy::kFirstOnly}) {
    EXPECT_EQ(nondominated_positions(pts, policy),
              nondominated_positions_reference(pts, policy));
  }
}

TEST(ParetoSweeps, WeakDominanceQueriesMatchBruteForce) {
  common::Rng rng(31);
  for (std::size_t d : {2u, 3u, 4u}) {
    for (std::size_t ns : {0u, 1u, 40u, 200u}) {
      const auto set = gridded_points(ns, d, rng, 5.0);
      const auto queries = gridded_points(120, d, rng, 5.0);
      const auto fast = weakly_dominated_queries(set, queries);
      ASSERT_EQ(fast.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        char want = 0;
        for (const Point& s : set) {
          bool leq = true;
          for (std::size_t k = 0; k < d; ++k) leq = leq && s[k] <= queries[q][k];
          if (leq) {
            want = 1;
            break;
          }
        }
        EXPECT_EQ(fast[q], want) << "d=" << d << " ns=" << ns << " q=" << q;
      }
    }
  }
}

TEST(ParetoSweeps, QueryEqualsSetPointIsWeaklyDominated) {
  // Weak dominance: a set point equal to the query counts (the tuner
  // resolves self-hits separately via its front-membership fallback).
  const std::vector<Point> set = {{1, 2, 3}};
  const std::vector<Point> queries = {{1, 2, 3}, {1, 2, 2.9}};
  const auto hit = weakly_dominated_queries(set, queries);
  EXPECT_EQ(hit[0], 1);
  EXPECT_EQ(hit[1], 0);
}

TEST(HypervolumeSweep, ThreeDMatchesRecursiveSlicer) {
  common::Rng rng(41);
  for (std::size_t n : {1u, 2u, 10u, 80u, 250u}) {
    for (double cells : {3.0, 1000.0}) {  // coarse grid: ties and duplicates
      const auto pts = gridded_points(n, 3, rng, cells);
      const Point ref = reference_point(pts);
      const double sweep = hypervolume(pts, ref);
      const double slicer = hypervolume_reference(pts, ref);
      EXPECT_NEAR(sweep, slicer, 1e-9 * std::max(1.0, std::fabs(slicer)))
          << "n=" << n << " cells=" << cells;
    }
  }
}

TEST(HypervolumeSweep, KnownValues3D) {
  // Single corner box.
  EXPECT_DOUBLE_EQ(hypervolume({{0, 0, 0}}, {1, 1, 1}), 1.0);
  // Two overlapping boxes: 2x1x1 + 1x2x1 - 1x1x1 overlap = 3.
  EXPECT_DOUBLE_EQ(hypervolume({{0, 1, 1}, {1, 0, 1}}, {2, 2, 2}), 3.0);
  // Dominated point adds nothing.
  EXPECT_DOUBLE_EQ(hypervolume({{0, 0, 0}, {0.5, 0.5, 0.5}}, {1, 1, 1}), 1.0);
  // Duplicates add nothing.
  EXPECT_DOUBLE_EQ(hypervolume({{0, 0, 0}, {0, 0, 0}}, {1, 1, 1}), 1.0);
  // All points share one z level (degenerate staircase growth).
  EXPECT_DOUBLE_EQ(hypervolume({{0, 1, 0}, {1, 0, 0}}, {2, 2, 1}), 3.0);
  // Points at/beyond the reference are clipped away entirely.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 0, 0}, {2, 2, 2}}, {1, 1, 1}), 0.0);
}

TEST(HypervolumeSweep, TwoAndFourDUnchangedBitwise) {
  common::Rng rng(47);
  {
    const auto pts = gridded_points(120, 2, rng, 7.0);
    const Point ref = reference_point(pts);
    EXPECT_EQ(hypervolume(pts, ref), hypervolume_reference(pts, ref));
  }
  {
    const auto pts = gridded_points(40, 4, rng, 5.0);
    const Point ref = reference_point(pts);
    EXPECT_EQ(hypervolume(pts, ref), hypervolume_reference(pts, ref));
  }
}

}  // namespace
}  // namespace ppat::pareto
