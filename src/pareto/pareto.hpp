// Multi-objective utilities: Pareto dominance, front extraction, exact
// hypervolume, and the paper's two quality indicators — hypervolume error
// (Eq. (2)) and ADRS (Eq. (3)).
//
// Convention: ALL objectives are minimized (the paper's QoR metrics — area,
// power, delay — are all costs). A point is a vector of objective values.
//
// Front extraction and the batched dominance queries run as sort-based
// sweeps for 2 and 3 objectives (the paper's area/power/delay case):
// O(n log n) instead of the pairwise O(n^2), with results identical to the
// pairwise reference (which is retained for >= 4 objectives and as the test
// oracle). That is what lets the tuner's per-round decision passes scale to
// 10^5-candidate pools.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace ppat::pareto {

using Point = linalg::Vector;

/// True if `a` weakly dominates `b` shifted by `delta`:
/// a_i <= b_i + delta_i for all i. With delta = 0 this is standard weak
/// dominance; the tuner's decision rules (paper Eqs. (11)-(12)) use
/// per-objective relaxations.
bool dominates_with_slack(const Point& a, const Point& b,
                          std::span<const double> delta);

/// Standard Pareto dominance for minimization: a <= b componentwise and
/// a < b in at least one component.
bool dominates(const Point& a, const Point& b);

/// How exact duplicates are treated by nondominated_positions: the tuner's
/// corner fronts keep every copy of a non-dominated corner (any of them can
/// veto a drop), while pareto_front_indices reports each distinct optimum
/// once (earliest position wins).
enum class DuplicatePolicy { kKeepAll, kFirstOnly };

/// Positions of the points not strictly dominated by any other point
/// (minimization), in ascending position order. Sort-based sweep for 2 and 3
/// objectives; pairwise reference otherwise. Identical output to
/// nondominated_positions_reference for every input.
std::vector<std::size_t> nondominated_positions(const std::vector<Point>& points,
                                                DuplicatePolicy policy);

/// Pairwise O(n^2) oracle for nondominated_positions (any dimensionality).
std::vector<std::size_t> nondominated_positions_reference(
    const std::vector<Point>& points, DuplicatePolicy policy);

/// For each query point, whether some `set` point weakly dominates it
/// (componentwise <=, minimization). Offline merge sweep for 2 and 3
/// objectives — O((|set| + |queries|) log) — pairwise scan otherwise.
/// The tuner phrases both delta-dominance passes as these queries against
/// the corner fronts.
std::vector<char> weakly_dominated_queries(const std::vector<Point>& set,
                                           const std::vector<Point>& queries);

/// Indices of the non-dominated points (first occurrence wins among exact
/// duplicates): nondominated_positions with DuplicatePolicy::kFirstOnly.
std::vector<std::size_t> pareto_front_indices(
    const std::vector<Point>& points);

/// The non-dominated subset itself.
std::vector<Point> pareto_front(const std::vector<Point>& points);

/// Reference point for hypervolume: componentwise maximum over `points`,
/// padded by (margin - 1) times a per-dimension scale (the coordinate's
/// magnitude, or the set's spread when the maximum sits at 0, so no
/// dimension ever collapses). Throws std::invalid_argument on empty input.
Point reference_point(const std::vector<Point>& points, double margin = 1.1);

/// Exact hypervolume of the region dominated by `points` and bounded by
/// `ref` (minimization). Points beyond the reference contribute only their
/// clipped part. Dimensions supported: 1 and up. 2-D and 3-D run closed-form
/// sweeps (O(n log n)); >= 4-D falls back to recursive slicing. The 3-D
/// sweep accumulates in a different order than the slicer, so the two agree
/// to rounding (~1e-12 relative), not bitwise.
double hypervolume(const std::vector<Point>& points, const Point& ref);

/// Hypervolume error of an approximation vs the golden front (paper
/// Eq. (2)): (H(P) - H(P_hat)) / H(P), computed against a shared reference
/// point (derived from the golden front if not supplied). Positive when the
/// approximation is worse; 0 when it matches.
double hypervolume_error(const std::vector<Point>& golden,
                         const std::vector<Point>& approx);
double hypervolume_error(const std::vector<Point>& golden,
                         const std::vector<Point>& approx, const Point& ref);

/// Average Distance from Reference Set (paper Eq. (3)): for each golden
/// point, the minimum over approximation points of the worst relative
/// per-objective shortfall max(0, (p_k - a_k) / |a_k|), averaged over the
/// golden set. One-sided: approximation points that dominate a golden point
/// are at distance 0 from it.
double adrs(const std::vector<Point>& golden,
            const std::vector<Point>& approx);

}  // namespace ppat::pareto
