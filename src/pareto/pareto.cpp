#include "pareto/pareto.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

namespace ppat::pareto {

bool dominates_with_slack(const Point& a, const Point& b,
                          std::span<const double> delta) {
  assert(a.size() == b.size() && delta.size() == a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i] + delta[i]) return false;
  }
  return true;
}

bool dominates(const Point& a, const Point& b) {
  assert(a.size() == b.size());
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

namespace {

/// Positions sorted lexicographically by coordinates; exact duplicates land
/// adjacent, so sweeps can process them as one group.
std::vector<std::size_t> lex_sorted_positions(const std::vector<Point>& pts) {
  std::vector<std::size_t> order(pts.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(pts[a].begin(), pts[a].end(),
                                        pts[b].begin(), pts[b].end());
  });
  return order;
}

/// 2-D front sweep. Groups are visited in lexicographic order, so every
/// previously visited point q satisfies q[0] <= p[0]; q strictly dominates p
/// exactly when additionally q[1] <= p[1] (q != p holds across groups), so a
/// running minimum of the second coordinate answers the dominance test.
void front_sweep_2d(const std::vector<Point>& pts,
                    const std::vector<std::size_t>& order,
                    DuplicatePolicy policy, std::vector<char>& survives) {
  double best_y = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < order.size()) {
    std::size_t e = g + 1;
    while (e < order.size() && pts[order[e]] == pts[order[g]]) ++e;
    const Point& p = pts[order[g]];
    if (!(best_y <= p[1])) {
      if (policy == DuplicatePolicy::kKeepAll) {
        for (std::size_t t = g; t < e; ++t) survives[order[t]] = 1;
      } else {
        std::size_t first = order[g];
        for (std::size_t t = g + 1; t < e; ++t) first = std::min(first, order[t]);
        survives[first] = 1;
      }
    }
    best_y = std::min(best_y, p[1]);
    g = e;
  }
}

/// Minimal staircase over (y, z) pairs: keys ascend, values strictly
/// descend. Supports "does any stored pair satisfy y <= Y and z <= Z?" —
/// the stored minimum z over keys <= Y sits at the largest such key.
class Staircase {
 public:
  bool any_leq(double y, double z) const {
    auto it = steps_.upper_bound(y);
    return it != steps_.begin() && std::prev(it)->second <= z;
  }
  void insert(double y, double z) {
    auto it = steps_.upper_bound(y);
    if (it != steps_.begin() && std::prev(it)->second <= z) return;  // no gain
    if (it != steps_.begin() && std::prev(it)->first == y) --it;     // overwrite
    it = steps_.insert_or_assign(it, y, z);
    ++it;
    while (it != steps_.end() && it->second >= z) it = steps_.erase(it);
  }

 private:
  std::map<double, double> steps_;
};

/// 3-D front sweep: lexicographic order again guarantees q[0] <= p[0] for
/// visited q, reducing strict dominance to a 2-D staircase query on (y, z).
void front_sweep_3d(const std::vector<Point>& pts,
                    const std::vector<std::size_t>& order,
                    DuplicatePolicy policy, std::vector<char>& survives) {
  Staircase stairs;
  std::size_t g = 0;
  while (g < order.size()) {
    std::size_t e = g + 1;
    while (e < order.size() && pts[order[e]] == pts[order[g]]) ++e;
    const Point& p = pts[order[g]];
    if (!stairs.any_leq(p[1], p[2])) {
      if (policy == DuplicatePolicy::kKeepAll) {
        for (std::size_t t = g; t < e; ++t) survives[order[t]] = 1;
      } else {
        std::size_t first = order[g];
        for (std::size_t t = g + 1; t < e; ++t) first = std::min(first, order[t]);
        survives[first] = 1;
      }
    }
    stairs.insert(p[1], p[2]);
    g = e;
  }
}

}  // namespace

std::vector<std::size_t> nondominated_positions_reference(
    const std::vector<Point>& points, DuplicatePolicy policy) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j == i) continue;
      if (dominates(points[j], points[i])) dominated = true;
      if (policy == DuplicatePolicy::kFirstOnly && j < i &&
          points[j] == points[i]) {
        dominated = true;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::size_t> nondominated_positions(const std::vector<Point>& points,
                                                DuplicatePolicy policy) {
  if (points.empty()) return {};
  const std::size_t d = points.front().size();
  if (d != 2 && d != 3) return nondominated_positions_reference(points, policy);
  const auto order = lex_sorted_positions(points);
  std::vector<char> survives(points.size(), 0);
  if (d == 2) {
    front_sweep_2d(points, order, policy, survives);
  } else {
    front_sweep_3d(points, order, policy, survives);
  }
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (survives[i]) front.push_back(i);
  }
  return front;
}

std::vector<char> weakly_dominated_queries(const std::vector<Point>& set,
                                           const std::vector<Point>& queries) {
  std::vector<char> out(queries.size(), 0);
  if (set.empty() || queries.empty()) return out;
  const std::size_t d = queries.front().size();
  if (d != 2 && d != 3) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const Point& s : set) {
        bool leq = true;
        for (std::size_t k = 0; k < d && leq; ++k) leq = s[k] <= queries[q][k];
        if (leq) {
          out[q] = 1;
          break;
        }
      }
    }
    return out;
  }
  // Offline merge on the first coordinate: set points with s[0] <= q[0] are
  // folded into the running structure before q is answered, which reduces
  // weak dominance to the remaining coordinates.
  std::vector<std::size_t> sorder(set.size());
  std::iota(sorder.begin(), sorder.end(), 0);
  std::sort(sorder.begin(), sorder.end(),
            [&](std::size_t a, std::size_t b) { return set[a][0] < set[b][0]; });
  std::vector<std::size_t> qorder(queries.size());
  std::iota(qorder.begin(), qorder.end(), 0);
  std::sort(qorder.begin(), qorder.end(), [&](std::size_t a, std::size_t b) {
    return queries[a][0] < queries[b][0];
  });
  std::size_t si = 0;
  if (d == 2) {
    double best_y = std::numeric_limits<double>::infinity();
    for (std::size_t qi : qorder) {
      const Point& q = queries[qi];
      while (si < sorder.size() && set[sorder[si]][0] <= q[0]) {
        best_y = std::min(best_y, set[sorder[si]][1]);
        ++si;
      }
      out[qi] = best_y <= q[1] ? 1 : 0;
    }
  } else {
    Staircase stairs;
    for (std::size_t qi : qorder) {
      const Point& q = queries[qi];
      while (si < sorder.size() && set[sorder[si]][0] <= q[0]) {
        stairs.insert(set[sorder[si]][1], set[sorder[si]][2]);
        ++si;
      }
      out[qi] = stairs.any_leq(q[1], q[2]) ? 1 : 0;
    }
  }
  return out;
}

std::vector<std::size_t> pareto_front_indices(
    const std::vector<Point>& points) {
  return nondominated_positions(points, DuplicatePolicy::kFirstOnly);
}

std::vector<Point> pareto_front(const std::vector<Point>& points) {
  std::vector<Point> front;
  for (std::size_t i : pareto_front_indices(points)) {
    front.push_back(points[i]);
  }
  return front;
}

Point reference_point(const std::vector<Point>& points, double margin) {
  if (points.empty()) {
    throw std::invalid_argument("reference_point: empty point set");
  }
  Point lo = points.front(), hi = points.front();
  for (const Point& p : points) {
    assert(p.size() == lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  Point ref(hi);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // Pad by a scale the dimension actually has: its magnitude or, when the
    // maximum sits at 0 (e.g. zero-WNS metrics), the set's spread. A fully
    // degenerate dimension (all points equal 0) falls back to unit scale so
    // the hypervolume never collapses along it.
    double scale = std::max(std::fabs(hi[i]), hi[i] - lo[i]);
    if (scale <= 0.0) scale = 1.0;
    ref[i] += (margin - 1.0) * scale;
  }
  return ref;
}

namespace {

double hv_recursive(std::vector<Point> points, const Point& ref);

/// 2-D sweep: sort by first objective ascending, accumulate the staircase.
double hv_2d(std::vector<Point>& points, const Point& ref) {
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a[0] < b[0]; });
  double hv = 0.0;
  double prev_y = ref[1];
  for (const Point& p : points) {
    if (p[0] >= ref[0] || p[1] >= prev_y) continue;
    hv += (ref[0] - p[0]) * (prev_y - p[1]);
    prev_y = p[1];
  }
  return hv;
}

/// 3-D sweep: process points by ascending third coordinate, maintaining the
/// 2-D staircase of their (x, y) projections and its covered area A w.r.t.
/// (ref[0], ref[1]). Between consecutive levels z0 < z1 the covered volume
/// grows by A * (z1 - z0); inserting a projection updates A by the area it
/// newly covers. O(n log n) vs the slicer's O(n^2 log n) front rebuilds.
double hv_3d(std::vector<Point>& points, const Point& ref) {
  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) { return a[2] < b[2]; });
  // Staircase of minimal (x, y) projections: x ascending, y strictly
  // descending; every entry strictly below the reference.
  std::map<double, double> stairs;
  double area = 0.0, hv = 0.0;
  double z_prev = points.front()[2];
  for (const Point& p : points) {
    hv += area * (p[2] - z_prev);
    z_prev = p[2];
    const double x = p[0], y = p[1];
    auto it = stairs.upper_bound(x);
    if (it != stairs.begin() && std::prev(it)->second <= y) continue;  // covered
    // Walk the entries this projection dominates, summing the area between
    // the old coverage height and y strip by strip.
    auto j = stairs.lower_bound(x);
    double cur_x = x;
    double cur_y = (j == stairs.begin()) ? ref[1] : std::prev(j)->second;
    double gain = 0.0;
    while (j != stairs.end() && j->second >= y) {
      gain += (j->first - cur_x) * (cur_y - y);
      cur_x = j->first;
      cur_y = j->second;
      j = stairs.erase(j);
    }
    const double right = (j == stairs.end()) ? ref[0] : j->first;
    gain += (right - cur_x) * (cur_y - y);
    area += gain;
    stairs[x] = y;
  }
  hv += area * (ref[2] - z_prev);
  return hv;
}

/// >= 3-D: slice along the last objective and recurse on projections.
double hv_slicing(const std::vector<Point>& points, const Point& ref) {
  const std::size_t d = ref.size();
  // Distinct last-coordinate values below the reference, ascending.
  std::vector<double> zs;
  zs.reserve(points.size());
  for (const Point& p : points) {
    if (p[d - 1] < ref[d - 1]) zs.push_back(p[d - 1]);
  }
  if (zs.empty()) return 0.0;
  std::sort(zs.begin(), zs.end());
  zs.erase(std::unique(zs.begin(), zs.end()), zs.end());
  zs.push_back(ref[d - 1]);

  Point sub_ref(ref.begin(), ref.end() - 1);
  double hv = 0.0;
  for (std::size_t s = 0; s + 1 < zs.size(); ++s) {
    const double z0 = zs[s], z1 = zs[s + 1];
    std::vector<Point> slab;
    for (const Point& p : points) {
      if (p[d - 1] <= z0) {
        slab.emplace_back(p.begin(), p.end() - 1);
      }
    }
    if (slab.empty()) continue;
    hv += hv_recursive(std::move(slab), sub_ref) * (z1 - z0);
  }
  return hv;
}

double hv_recursive(std::vector<Point> points, const Point& ref) {
  const std::size_t d = ref.size();
  if (points.empty()) return 0.0;
  if (d == 1) {
    double best = ref[0];
    for (const Point& p : points) best = std::min(best, p[0]);
    return std::max(0.0, ref[0] - best);
  }
  if (d == 2) return hv_2d(points, ref);
  return hv_slicing(points, ref);
}

/// Drops points with any coordinate at or beyond the reference (they
/// contribute nothing in that direction once clipped).
std::vector<Point> clip_to_reference(const std::vector<Point>& points,
                                     const Point& ref) {
  for (const Point& p : points) {
    if (p.size() != ref.size()) {
      throw std::invalid_argument("hypervolume: dimension mismatch");
    }
  }
  std::vector<Point> clipped;
  clipped.reserve(points.size());
  for (const Point& p : points) {
    bool inside = true;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (p[i] >= ref[i]) {
        inside = false;
        break;
      }
    }
    if (inside) clipped.push_back(p);
  }
  return clipped;
}

}  // namespace

double hypervolume(const std::vector<Point>& points, const Point& ref) {
  std::vector<Point> clipped = clip_to_reference(points, ref);
  if (clipped.empty()) return 0.0;
  if (ref.size() == 3) return hv_3d(clipped, ref);
  return hv_recursive(std::move(clipped), ref);
}

double hypervolume_error(const std::vector<Point>& golden,
                         const std::vector<Point>& approx, const Point& ref) {
  const double h_golden = hypervolume(golden, ref);
  if (h_golden <= 0.0) {
    throw std::invalid_argument(
        "hypervolume_error: golden set has zero hypervolume");
  }
  const double h_approx = hypervolume(approx, ref);
  return (h_golden - h_approx) / h_golden;
}

double hypervolume_error(const std::vector<Point>& golden,
                         const std::vector<Point>& approx) {
  return hypervolume_error(golden, approx, reference_point(golden));
}

double adrs(const std::vector<Point>& golden,
            const std::vector<Point>& approx) {
  if (golden.empty() || approx.empty()) {
    throw std::invalid_argument("adrs: empty input set");
  }
  double total = 0.0;
  for (const Point& a : golden) {
    double best = 1e300;
    for (const Point& p : approx) {
      assert(p.size() == a.size());
      double worst = 0.0;
      for (std::size_t k = 0; k < a.size(); ++k) {
        const double denom = std::fabs(a[k]) > 1e-300 ? std::fabs(a[k]) : 1.0;
        // One-sided distance (paper Eq. (3)): only being WORSE than the
        // reference point costs; an approximation point that dominates a
        // golden point is at distance 0 from it, not penalized.
        worst = std::max(worst, (p[k] - a[k]) / denom);
      }
      best = std::min(best, worst);
    }
    total += best;
  }
  return total / static_cast<double>(golden.size());
}

}  // namespace ppat::pareto
