#include "tuner/ppatuner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "journal/journal.hpp"
#include "pareto/pareto.hpp"

namespace ppat::tuner {
namespace {

using Points = std::vector<linalg::Vector>;
using Outcome = CandidatePool::RevealOutcome;

enum class Status : unsigned char { kUndecided, kDropped, kPareto };

/// Sets `out`'s dropped / classified_pareto / undecided counts (the fields
/// PPATunerProgress and PPATunerDiagnostics share) from `status`, and lists
/// the Pareto-classified indices when `out` has pareto_ids (progress).
template <class Counts>
void tally_status(const std::vector<Status>& status, Counts& out) {
  out.dropped = out.classified_pareto = out.undecided = 0;
  for (std::size_t i = 0; i < status.size(); ++i) {
    switch (status[i]) {
      case Status::kDropped:
        ++out.dropped;
        break;
      case Status::kPareto:
        ++out.classified_pareto;
        if constexpr (requires { out.pareto_ids; }) out.pareto_ids.push_back(i);
        break;
      case Status::kUndecided:
        ++out.undecided;
        break;
    }
  }
}

/// Componentwise a <= b + slack.
bool leq_with_slack(const linalg::Vector& a, const linalg::Vector& b,
                    const linalg::Vector& slack) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k] + slack[k]) return false;
  }
  return true;
}

/// The members of `subset` whose corner vectors are non-dominated among the
/// subset (minimization): pareto::nondominated_positions, by default with
/// every duplicate copy kept. Positions come back ascending, so the front
/// keeps subset order.
std::vector<std::size_t> corner_front(
    const std::vector<std::size_t>& subset, const Points& corners,
    pareto::DuplicatePolicy policy = pareto::DuplicatePolicy::kKeepAll) {
  std::vector<pareto::Point> pts;
  pts.reserve(subset.size());
  for (std::size_t i : subset) pts.push_back(corners[i]);
  const auto positions = pareto::nondominated_positions(pts, policy);
  std::vector<std::size_t> front;
  front.reserve(positions.size());
  for (std::size_t pos : positions) front.push_back(subset[pos]);
  return front;
}

/// One run of Alg. 1, aggregate-built from (pool, options). Each member
/// function is one phase of the loop; run_ppatuner calls them in order.
struct PalState {
  CandidatePool& pool;
  const PPATunerOptions& options;
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng{options.seed};
  journal::RunJournal* const jnl = options.journal;
  const double half_width = std::sqrt(options.tau);  // Eq. (9)
  std::vector<std::unique_ptr<Surrogate>> models{};  // one per objective
  std::vector<Status> status = std::vector<Status>(n, Status::kUndecided);
  // Region corners (Eqs. (9)-(10)); a revealed candidate's box is
  // `collapsed` onto its golden point.
  Points lo = Points(n, linalg::Vector(n_obj, -1e30));
  Points hi = Points(n, linalg::Vector(n_obj, 1e30));
  std::vector<bool> collapsed = std::vector<bool>(n, false);
  Points train_x{};
  Points train_y = Points(n_obj);  // [objective][observation]
  // Per-objective observed range (for delta and diameter normalization),
  // the delta vector, and its negation.
  linalg::Vector scale = linalg::Vector(n_obj, 1.0);
  linalg::Vector delta = linalg::Vector(n_obj, 0.0);
  linalg::Vector neg_delta = linalg::Vector(n_obj, 0.0);
  // Alive candidates (not dropped), ascending. Pruned in place as
  // candidates drop — the set only ever shrinks, so per-round work tracks
  // the surviving pool instead of rescanning all n candidates.
  std::vector<std::size_t> alive{};
  std::vector<std::size_t> alive_unrevealed{};  // need fresh predictions
  std::size_t rounds = 0;
  // Successful reveals observed by THIS invocation. Equals pool.runs() on a
  // fresh run (each candidate is revealed at most once), but stays correct
  // under journal replay, where recorded reveals are served without ever
  // touching the pool.
  std::size_t runs_count = 0;
  std::size_t failed_evals = 0;
  bool stopped_early = false;

  /// Alg. 1 lines 1-2: the journal header, then the initial reveals. With
  /// nothing revealed yet, a top-up draw over the remaining candidates is
  /// exactly the initial draw, so one loop serves both: the kInit batch,
  /// then kTopUp batches while every reveal so far has failed.
  void initialize() {
    // The journal's run identity: a journal only records or resumes the
    // exact run configuration it was opened for. The pool fingerprint
    // hashes every encoded candidate, so a reordered or regenerated pool is
    // rejected instead of silently replaying wrong reveals.
    if (jnl != nullptr) {
      journal::RunMeta meta;
      meta.seed = options.seed;
      meta.tau = options.tau;
      meta.delta_rel = options.delta_rel;
      meta.init_fraction = options.init_fraction;
      meta.batch_size = options.batch_size;
      meta.min_init = options.min_init;
      meta.refit_every = options.refit_every;
      meta.max_runs = options.max_runs;
      meta.max_rounds = options.max_rounds;
      meta.pool_size = n;
      meta.num_objectives = n_obj;
      meta.objectives.assign(pool.objectives().begin(),
                             pool.objectives().end());
      std::uint64_t fp = 0x50504154u;  // "PPAT"
      for (const linalg::Vector& x : pool.encoded()) {
        fp = journal::hash_doubles(fp, x);
      }
      meta.pool_fingerprint = fp;
      jnl->begin_run(meta);
    }
    // At least one initial reveal: a small init_fraction with min_init = 0
    // must not produce an empty training set.
    const std::size_t init_count = std::min(
        {n, std::max<std::size_t>(
                {1, options.min_init,
                 static_cast<std::size_t>(options.init_fraction *
                                          static_cast<double>(n))}),
         options.max_runs});
    for (std::size_t pass = 0; train_x.empty(); ++pass) {
      std::vector<std::size_t> remaining;
      for (std::size_t i = 0; i < n; ++i) {
        if (status[i] != Status::kDropped && !collapsed[i]) {
          remaining.push_back(i);
        }
      }
      if (remaining.empty()) {
        throw PoolEvaluationError(
            "run_ppatuner: every candidate evaluation failed during "
            "initialization");
      }
      auto batch = rng.sample_without_replacement(
          remaining.size(), std::min(init_count, remaining.size()));
      for (std::size_t& p : batch) p = remaining[p];
      reveal(batch, pass == 0 ? journal::Phase::kInit : journal::Phase::kTopUp,
             pass == 0 ? 0 : pass - 1);
    }
    update_scales();
    for (std::size_t i = 0; i < n; ++i) {
      if (status[i] != Status::kDropped) alive.push_back(i);
    }
  }

  /// Builds and fits one surrogate per objective, then refits them.
  void fit(const SurrogateFactory& factory) {
    models.reserve(n_obj);
    for (std::size_t k = 0; k < n_obj; ++k) models.push_back(factory(k));
    for_each_objective(n_obj, [&](std::size_t k) {
      models[k]->fit(train_x, train_y[k]);
    });
    refit_models(models, rng);
  }

  /// Alg. 1 line 3: starts a round, or returns false when T_max, the run
  /// budget or a stop request ends the loop, or nothing is left to decide.
  bool next_round() {
    if (rounds >= options.max_rounds || runs_count >= options.max_runs) {
      return false;
    }
    // Graceful shutdown: the previous round's batch has been fully drained
    // and committed, so stopping here leaves a clean journal — a resumed
    // run continues from exactly this point.
    if (options.should_stop && options.should_stop()) {
      stopped_early = true;
      return false;
    }
    ++rounds;
    // Quarantines from the previous round's reveals leave the alive set.
    prune_dropped();
    alive_unrevealed.clear();
    for (std::size_t i : alive) {
      if (!collapsed[i]) alive_unrevealed.push_back(i);
    }
    const bool any_undecided =
        std::any_of(alive.begin(), alive.end(), [&](std::size_t i) {
          return status[i] == Status::kUndecided;
        });
    return any_undecided && !alive_unrevealed.empty();
  }

  /// Model calibration: each alive, unrevealed region is intersected with
  /// [mu - sqrt(tau) sigma, mu + sqrt(tau) sigma] (Eqs. (9)-(10)).
  void predict_regions() {
    Points inputs;
    inputs.reserve(alive_unrevealed.size());
    for (std::size_t i : alive_unrevealed) inputs.push_back(pool.encoded()[i]);
    // Each objective touches only component k of every region, so the
    // per-objective tasks write disjoint doubles.
    for_each_objective(n_obj, [&](std::size_t k) {
      linalg::Vector means, vars;
      // Candidate indices are stable round to round, so the cache extends
      // last round's forward solves instead of re-solving.
      models[k]->predict_batch_cached(alive_unrevealed, inputs, means, vars);
      for (std::size_t c = 0; c < alive_unrevealed.size(); ++c) {
        const std::size_t i = alive_unrevealed[c];
        const double sd = std::sqrt(std::max(0.0, vars[c]));
        lo[i][k] = std::max(lo[i][k], means[c] - half_width * sd);
        hi[i][k] = std::min(hi[i][k], means[c] + half_width * sd);
        if (lo[i][k] > hi[i][k]) {
          // Intersection vanished (model shifted between rounds): collapse
          // to the midpoint to preserve monotone, non-empty regions.
          const double mid = 0.5 * (lo[i][k] + hi[i][k]);
          lo[i][k] = mid;
          hi[i][k] = mid;
        }
      }
    });
  }

  /// Journals a sequence-sensitive digest of every alive (id, lo, hi) —
  /// replay verifies it, so a resumed run that reconstructs different
  /// regions fails loudly — plus cadenced full snapshots for offline
  /// inspection (JournalOptions::region_snapshot_every).
  void journal_regions() {
    if (jnl == nullptr) return;
    std::uint64_t digest = 0x52474E53u;  // "RGNS"
    for (std::size_t i : alive) {
      digest = journal::mix_hash(digest, i);
      digest = journal::hash_doubles(digest, lo[i]);
      digest = journal::hash_doubles(digest, hi[i]);
    }
    jnl->record_regions(rounds, alive.size(), digest, [&] {
      std::vector<journal::RegionSnapshotEntry> snapshot;
      snapshot.reserve(alive.size());
      for (std::size_t i : alive) snapshot.push_back({i, lo[i], hi[i]});
      return snapshot;
    });
  }

  /// Decision-making: an undecided candidate i DROPS when some other alive
  /// j has hi_j <= lo_i + delta (Eq. (11)), and is classified PARETO when
  /// no other alive j has lo_j <= hi_i - delta (Eq. (12)).
  void classify() {
    delta_pass(hi, lo, delta, [&](std::size_t i, bool hit) {
      if (hit) status[i] = Status::kDropped;
    });
    prune_dropped();
    delta_pass(lo, hi, neg_delta, [&](std::size_t i, bool hit) {
      if (!hit) status[i] = Status::kPareto;
    });
  }

  /// The one delta-dominance pass: calls decide(i, hit) for every undecided
  /// alive candidate i, where hit says whether some OTHER alive j has
  /// other[j] <= own[i] + slack. Only the `other`-corner front can hit, so
  /// this is one O((F + Q) log) sweep of the points own[i] + slack (the sum
  /// leq_with_slack compares against) against that front. Self-exclusion
  /// (j != i) is the one subtlety: when the hit could be i's own corner, a
  /// linear re-scan of the front settles it — cheap, because only
  /// near-collapsed regions are ambiguous.
  template <class Decide>
  void delta_pass(const Points& other, const Points& own,
                  const linalg::Vector& slack, const Decide& decide) {
    // Ascending, like `alive`, so membership is a binary search.
    const std::vector<std::size_t> front = corner_front(alive, other);
    std::vector<pareto::Point> front_pts;
    front_pts.reserve(front.size());
    for (std::size_t j : front) front_pts.push_back(other[j]);
    std::vector<std::size_t> query_idx;
    std::vector<pareto::Point> queries;
    for (std::size_t i : alive) {
      if (status[i] != Status::kUndecided) continue;
      query_idx.push_back(i);
      pareto::Point q(n_obj);
      for (std::size_t k = 0; k < n_obj; ++k) q[k] = own[i][k] + slack[k];
      queries.push_back(std::move(q));
    }
    const auto hits = pareto::weakly_dominated_queries(front_pts, queries);
    for (std::size_t c = 0; c < query_idx.size(); ++c) {
      const std::size_t i = query_idx[c];
      bool hit = hits[c] != 0;
      if (hit && leq_with_slack(other[i], own[i], slack) &&
          std::binary_search(front.begin(), front.end(), i)) {
        hit = std::any_of(front.begin(), front.end(), [&](std::size_t j) {
          return j != i && leq_with_slack(other[j], own[i], slack);
        });
      }
      decide(i, hit);
    }
  }

  /// Selection (Eq. (13)): up to batch_size alive, unrevealed candidates
  /// with the largest normalized region diameters, within the run budget.
  std::vector<std::size_t> select_batch() const {
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i : alive_unrevealed) {
      if (status[i] == Status::kDropped) continue;
      double d2 = 0.0;
      for (std::size_t k = 0; k < n_obj; ++k) {
        const double w = (hi[i][k] - lo[i][k]) / scale[k];
        d2 += w * w;
      }
      ranked.emplace_back(d2, i);
    }
    const std::size_t batch = std::min(
        {options.batch_size, ranked.size(), options.max_runs - runs_count});
    if (batch == 0) return {};
    // Largest diameter first; ties broken by candidate index so the
    // selection is identical across standard-library partial_sort
    // implementations.
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(batch),
                      ranked.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    std::vector<std::size_t> selected;
    selected.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) selected.push_back(ranked[b].second);
    return selected;
  }

  /// Reveals a batch through the pool and returns the successfully revealed
  /// indices, now observations; a permanently failed candidate is
  /// quarantined (dropped, never re-selected). With a journal the batch is
  /// begin/append/commit: recorded outcomes are served from the journal,
  /// only the rest is revealed live and appended as the pool reports it.
  /// Outcomes fold in selection order either way, so replayed and live
  /// batches reach the surrogates identically.
  std::vector<std::size_t> reveal(const std::vector<std::size_t>& indices,
                                  journal::Phase phase, std::size_t round) {
    journal::RunJournal::BatchReplay replay;
    if (jnl != nullptr) replay = jnl->begin_batch(phase, round, indices);
    std::vector<std::size_t> missing;
    missing.reserve(indices.size());
    for (std::size_t i : indices) {
      if (!replay.outcomes.contains(i)) missing.push_back(i);
    }
    std::vector<Outcome> live;
    if (!missing.empty()) {
      CandidatePool::RevealObserver on_outcome;
      if (jnl != nullptr) {
        // The journal's one writer of reveal records. Live pools call it
        // from their evaluation workers as each run completes, so a crash
        // mid-batch loses only the runs still in flight.
        on_outcome = [this, &missing](std::size_t j, const Outcome& out) {
          journal::RevealRecord rec;
          rec.id = missing[j];
          rec.status = out.ok          ? journal::RevealStatus::kOk
                       : out.timed_out ? journal::RevealStatus::kTimedOut
                                       : journal::RevealStatus::kFailed;
          rec.attempts = out.attempts;
          rec.elapsed_ms = out.elapsed_ms;
          if (out.ok) rec.objectives = out.value;
          rec.error = out.error;
          jnl->append_reveal(rec);
        };
      }
      live = pool.reveal_batch(missing, on_outcome);
    }
    std::vector<std::size_t> revealed;
    revealed.reserve(indices.size());
    // One quarantine summary per batch: a high-fault live run would
    // otherwise emit one warning per failed candidate per round.
    std::vector<std::size_t> failed;
    std::string first_error;
    std::size_t live_pos = 0;
    for (std::size_t idx : indices) {
      bool ok;
      pareto::Point value;
      std::string error;
      if (const auto it = replay.outcomes.find(idx);
          it != replay.outcomes.end()) {
        ok = it->second.ok();
        if (ok) value = it->second.objectives;
        else error = it->second.error;
      } else {
        const Outcome& out = live[live_pos++];
        ok = out.ok;
        value = out.value;
        error = out.error;
      }
      if (ok) {
        record_observation(idx, value);
        revealed.push_back(idx);
        ++runs_count;
      } else {
        status[idx] = Status::kDropped;
        if (failed.empty()) first_error = error;
        failed.push_back(idx);
      }
    }
    failed_evals += failed.size();
    if (!failed.empty()) {
      PPAT_WARN << failed.size() << " of " << indices.size()
                << " evaluations failed; candidates quarantined (first: "
                << "candidate " << failed.front() << ": " << first_error
                << ")";
    }
    if (jnl != nullptr) {
      jnl->commit_batch(phase, round, runs_count, rng.state());
    }
    return revealed;
  }

  void record_observation(std::size_t i, const pareto::Point& y) {
    lo[i] = y;
    hi[i] = y;
    collapsed[i] = true;
    train_x.push_back(pool.encoded()[i]);
    for (std::size_t k = 0; k < n_obj; ++k) train_y[k].push_back(y[k]);
  }

  /// Folds a round's reveals into each model with one batched update (one
  /// rank-1 append per point, one posterior solve per model), then rescales.
  void fold_in(const std::vector<std::size_t>& revealed) {
    if (!revealed.empty()) {
      Points xs;
      xs.reserve(revealed.size());
      Points ys(n_obj);
      for (std::size_t i : revealed) {
        xs.push_back(pool.encoded()[i]);
        for (std::size_t k = 0; k < n_obj; ++k) ys[k].push_back(lo[i][k]);
      }
      for_each_objective(n_obj, [&](std::size_t k) {
        models[k]->add_observation_batch(xs, ys[k]);
      });
    }
    update_scales();
  }

  void update_scales() {
    for (std::size_t k = 0; k < n_obj; ++k) {
      const auto [lowest, highest] = std::ranges::minmax(train_y[k]);
      scale[k] = std::max(1e-12, highest - lowest);
      delta[k] = options.delta_rel * scale[k];
      neg_delta[k] = -delta[k];
    }
  }

  void prune_dropped() {
    std::erase_if(alive,
                  [&](std::size_t i) { return status[i] == Status::kDropped; });
  }

  void report_progress() const {
    if (!options.on_round) return;
    PPATunerProgress progress;
    progress.round = rounds;
    progress.runs = runs_count;
    tally_status(status, progress);
    options.on_round(progress);
  }

  /// The predicted Pareto set: the Pareto-classified candidates, the
  /// undecided ones (budget stop) with non-dominated region midpoints, and
  /// the front of everything revealed.
  TuningResult finalize(PPATunerDiagnostics* diagnostics) {
    prune_dropped();
    Points mid(n);
    for (std::size_t i : alive) {
      mid[i].resize(n_obj);
      for (std::size_t k = 0; k < n_obj; ++k) {
        mid[i][k] = 0.5 * (lo[i][k] + hi[i][k]);
      }
    }
    const std::vector<std::size_t> mid_front = corner_front(alive, mid);

    TuningResult result;
    std::vector<bool> in_result(n, false);
    auto add = [&](std::size_t i) {
      if (!in_result[i]) {
        in_result[i] = true;
        result.pareto_indices.push_back(i);
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (status[i] == Status::kPareto) add(i);
    }
    for (std::size_t i : mid_front) {
      if (status[i] == Status::kUndecided) add(i);
    }
    // The revealed configurations have been through the tool, so their
    // front (pareto_front_indices of their golden values, == lo) is known
    // for free: a budget-stopped run never discards observed Pareto points.
    std::vector<std::size_t> revealed;
    for (std::size_t i = 0; i < n; ++i) {
      if (collapsed[i]) revealed.push_back(i);
    }
    for (std::size_t i :
         corner_front(revealed, lo, pareto::DuplicatePolicy::kFirstOnly)) {
      add(i);
    }
    result.tool_runs = runs_count;
    result.failed_runs = failed_evals;

    if (jnl != nullptr) {
      jnl->record_shutdown(stopped_early
                               ? journal::ShutdownReason::kStopRequested
                               : journal::ShutdownReason::kCompleted,
                           rounds);
    }
    if (diagnostics != nullptr) {
      diagnostics->rounds = rounds;
      diagnostics->failed_evaluations = failed_evals;
      diagnostics->replayed_reveals =
          jnl != nullptr ? jnl->replayed_reveals() : 0;
      diagnostics->stopped_early = stopped_early;
      tally_status(status, *diagnostics);
      diagnostics->task_correlations.clear();
      for (const auto& m : models) {
        if (const auto* tgp =
                dynamic_cast<const TransferGpSurrogate*>(m.get())) {
          diagnostics->task_correlations.push_back(tgp->task_correlation());
        }
      }
    }
    return result;
  }
};

}  // namespace

TuningResult run_ppatuner(CandidatePool& pool, const SurrogateFactory& factory,
                          const PPATunerOptions& options,
                          PPATunerDiagnostics* diagnostics) {
  if (pool.size() == 0) {
    throw std::invalid_argument("run_ppatuner: empty candidate pool");
  }
  if (options.max_runs == 0) {
    throw std::invalid_argument(
        "run_ppatuner: max_runs must be > 0 (the surrogates need at least "
        "one revealed observation to fit)");
  }
  if (options.refit_every == 0) {
    throw std::invalid_argument("run_ppatuner: refit_every must be > 0");
  }

  // The caller's pool, or one this run owns (ThreadPool clamps a zero
  // hardware_concurrency() to one thread), is this thread's current pool
  // for the whole run; the process-global pool is never touched.
  std::optional<common::ThreadPool> owned_pool;
  common::ThreadPool* threads = options.thread_pool;
  if (threads == nullptr) {
    threads = &owned_pool.emplace(options.num_threads != 0
                                      ? options.num_threads
                                      : std::thread::hardware_concurrency());
  }
  const common::ScopedPool run_pool(threads);

  PalState pal{pool, options};
  pal.initialize();  // Alg. 1 lines 1-2
  pal.fit(factory);
  while (pal.next_round()) {  // Alg. 1 lines 3-13
    pal.predict_regions();  // Eqs. (9)-(10)
    pal.journal_regions();
    pal.classify();  // Eqs. (11)-(12)
    const std::vector<std::size_t> batch = pal.select_batch();  // Eq. (13)
    if (batch.empty()) break;
    pal.fold_in(pal.reveal(batch, journal::Phase::kRound, pal.rounds));
    if (pal.rounds % options.refit_every == 0) {
      refit_models(pal.models, pal.rng);
    }
    pal.report_progress();
  }
  return pal.finalize(diagnostics);
}

}  // namespace ppat::tuner
