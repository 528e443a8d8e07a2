#include "tuner/ppatuner.hpp"

#include <algorithm>
#include <cassert>
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

enum class Status : unsigned char { kUndecided, kDropped, kPareto };

/// Sets `out`'s dropped / classified_pareto / undecided counts (the fields
/// PPATunerProgress and PPATunerDiagnostics share) from `status`, listing
/// the Pareto-classified indices into `pareto_ids` when it is given.
template <class Counts>
void tally_status(const std::vector<Status>& status, Counts& out,
                  std::vector<std::size_t>* pareto_ids = nullptr) {
  out.dropped = out.classified_pareto = out.undecided = 0;
  for (std::size_t i = 0; i < status.size(); ++i) {
    switch (status[i]) {
      case Status::kDropped:
        ++out.dropped;
        break;
      case Status::kPareto:
        ++out.classified_pareto;
        if (pareto_ids != nullptr) pareto_ids->push_back(i);
        break;
      case Status::kUndecided:
        ++out.undecided;
        break;
    }
  }
}

/// Componentwise a <= b + delta.
bool leq_with_slack(const linalg::Vector& a, const linalg::Vector& b,
                    const linalg::Vector& delta) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k] + delta[k]) return false;
  }
  return true;
}

/// x' (optimistic corner lo_j) could still delta-dominate x (pessimistic
/// corner hi_i) in the optimistic/pessimistic worst case:
/// lo_j <= hi_i - delta componentwise (paper Eq. (12)'s negation).
bool dominates_with_margin(const linalg::Vector& lo_j,
                           const linalg::Vector& hi_i,
                           const linalg::Vector& delta) {
  for (std::size_t k = 0; k < hi_i.size(); ++k) {
    if (lo_j[k] > hi_i[k] - delta[k]) return false;
  }
  return true;
}

/// Indices (into `subset`) whose corner vectors are non-dominated among the
/// subset (minimization): not strictly dominated by a distinct corner, every
/// duplicate copy kept, which is pareto::nondominated_positions with
/// kKeepAll. Positions come back ascending, so the front keeps subset order.
std::vector<std::size_t> corner_front(
    const std::vector<std::size_t>& subset,
    const std::vector<linalg::Vector>& corners) {
  std::vector<pareto::Point> pts;
  pts.reserve(subset.size());
  for (std::size_t i : subset) pts.push_back(corners[i]);
  const auto positions =
      pareto::nondominated_positions(pts, pareto::DuplicatePolicy::kKeepAll);
  std::vector<std::size_t> front;
  front.reserve(positions.size());
  for (std::size_t pos : positions) front.push_back(subset[pos]);
  return front;
}

}  // namespace

TuningResult run_ppatuner(CandidatePool& pool, const SurrogateFactory& factory,
                          const PPATunerOptions& options,
                          PPATunerDiagnostics* diagnostics) {
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng(options.seed);
  journal::RunJournal* const jnl = options.journal;

  // Surrogate maintenance threads. All randomness is drawn on this thread
  // (prepare_refit) and all parallel partitions are bit-stable, so the
  // results are identical for every thread count. The caller's pool, or
  // one this run owns, is installed as this thread's current pool for the
  // whole run; the process-global pool is never touched.
  std::optional<common::ThreadPool> owned_pool;
  common::ThreadPool* threads = options.thread_pool;
  if (threads == nullptr) {
    std::size_t num_threads = options.num_threads;
    if (num_threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      num_threads = hw == 0 ? 1 : hw;
    }
    threads = &owned_pool.emplace(num_threads);
  }
  const common::ScopedPool run_pool(threads);

  // ---- Initialization (Alg. 1 lines 1-2) ----
  if (n == 0) {
    throw std::invalid_argument("run_ppatuner: empty candidate pool");
  }
  if (options.max_runs == 0) {
    throw std::invalid_argument(
        "run_ppatuner: max_runs must be > 0 (the surrogates need at least "
        "one revealed observation to fit)");
  }
  // Journal identity check / header: the journal only records or resumes
  // the exact run configuration it was opened for. The pool fingerprint
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
    meta.objectives.assign(pool.objectives().begin(), pool.objectives().end());
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
  const auto init_idx = rng.sample_without_replacement(n, init_count);

  std::vector<Status> status(n, Status::kUndecided);
  std::vector<linalg::Vector> lo(n, linalg::Vector(n_obj, -1e30));
  std::vector<linalg::Vector> hi(n, linalg::Vector(n_obj, 1e30));
  std::vector<bool> collapsed(n, false);  // revealed: box == golden point

  std::vector<linalg::Vector> train_x;
  std::vector<linalg::Vector> train_y(n_obj);
  linalg::Vector obj_min(n_obj, 1e300), obj_max(n_obj, -1e300);
  std::size_t failed_evals = 0;
  // Successful reveals observed by THIS invocation. Equals pool.runs() on a
  // fresh run (each candidate is revealed at most once), but stays correct
  // under journal replay, where recorded reveals are served without ever
  // touching the pool.
  std::size_t runs_count = 0;

  auto record_observation = [&](std::size_t i, const pareto::Point& y) {
    lo[i] = y;
    hi[i] = y;
    collapsed[i] = true;
    train_x.push_back(pool.encoded()[i]);
    for (std::size_t k = 0; k < n_obj; ++k) {
      train_y[k].push_back(y[k]);
      obj_min[k] = std::min(obj_min[k], y[k]);
      obj_max[k] = std::max(obj_max[k], y[k]);
    }
  };
  // Reveals a batch through the pool (live pools dispatch it concurrently
  // across tool licenses). Successful reveals become observations; a
  // candidate whose evaluation permanently failed is quarantined — dropped
  // and never re-selected. Returns the successfully revealed indices.
  //
  // With a journal, the batch follows the begin/append/commit protocol:
  // outcomes already recorded are served from the journal (no tool time),
  // only the remainder — possibly the whole batch, possibly nothing — is
  // revealed live, and every live outcome is appended before the commit
  // marker flushes the batch to disk. Outcomes are processed in selection
  // order either way, so replayed and live batches fold into the surrogates
  // identically.
  auto reveal_many = [&](const std::vector<std::size_t>& indices,
                         journal::Phase phase, std::size_t round) {
    std::vector<std::size_t> revealed;
    revealed.reserve(indices.size());
    journal::RunJournal::BatchReplay replay;
    if (jnl != nullptr) replay = jnl->begin_batch(phase, round, indices);
    std::vector<std::size_t> missing;
    missing.reserve(indices.size());
    for (std::size_t i : indices) {
      if (!replay.outcomes.contains(i)) missing.push_back(i);
    }
    std::vector<CandidatePool::RevealOutcome> live;
    if (!missing.empty()) live = pool.reveal_batch(missing);
    // One quarantine summary per batch: a high-fault live run would
    // otherwise emit one warning per failed candidate per round.
    std::size_t batch_failures = 0;
    std::size_t first_failed = 0;
    std::string first_error;
    std::size_t live_pos = 0;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const std::size_t idx = indices[j];
      bool ok;
      pareto::Point value;
      std::string error;
      if (const auto it = replay.outcomes.find(idx);
          it != replay.outcomes.end()) {
        ok = it->second.ok();
        if (ok) value = it->second.objectives;
        else error = it->second.error;
      } else {
        const CandidatePool::RevealOutcome& out = live[live_pos++];
        ok = out.ok;
        value = out.value;
        error = out.error;
        if (jnl != nullptr) {
          // Blanket-append the live outcome. A LiveCandidatePool wired with
          // set_journal already appended this record per completion from
          // inside EvalService (mid-batch durability); append_reveal dedups
          // by id, so this only covers pools without that hook.
          journal::RevealRecord rec;
          rec.id = idx;
          rec.status = ok ? journal::RevealStatus::kOk
                       : out.timed_out ? journal::RevealStatus::kTimedOut
                                       : journal::RevealStatus::kFailed;
          rec.attempts = out.attempts;
          rec.elapsed_ms = out.elapsed_ms;
          if (ok) rec.objectives = value;
          rec.error = error;
          jnl->append_reveal(rec);
        }
      }
      if (ok) {
        record_observation(idx, value);
        revealed.push_back(idx);
        ++runs_count;
      } else {
        status[idx] = Status::kDropped;
        ++failed_evals;
        if (batch_failures == 0) {
          first_failed = idx;
          first_error = error;
        }
        ++batch_failures;
      }
    }
    if (batch_failures > 0) {
      PPAT_WARN << batch_failures << " of " << indices.size()
                << " evaluations failed; candidates quarantined (first: "
                << "candidate " << first_failed << ": " << first_error << ")";
    }
    if (jnl != nullptr) {
      jnl->commit_batch(phase, round, runs_count, rng.state());
    }
    return revealed;
  };
  reveal_many(init_idx, journal::Phase::kInit, 0);
  // If every initial evaluation failed (live tool misbehaving), keep
  // sampling fresh candidates until one run succeeds or the pool is
  // exhausted — the surrogates cannot fit on an empty training set.
  std::size_t topup_seq = 0;
  while (train_x.empty()) {
    std::vector<std::size_t> remaining;
    for (std::size_t i = 0; i < n; ++i) {
      if (status[i] != Status::kDropped && !collapsed[i]) remaining.push_back(i);
    }
    if (remaining.empty()) {
      throw PoolEvaluationError(
          "run_ppatuner: every candidate evaluation failed during "
          "initialization");
    }
    const auto pick =
        rng.sample_without_replacement(remaining.size(),
                                       std::min(init_count, remaining.size()));
    std::vector<std::size_t> retry_idx;
    retry_idx.reserve(pick.size());
    for (std::size_t p : pick) retry_idx.push_back(remaining[p]);
    reveal_many(retry_idx, journal::Phase::kTopUp, topup_seq++);
  }

  // Per-objective scale (for delta and diameter normalization).
  linalg::Vector scale(n_obj, 1.0), delta(n_obj, 0.0);
  auto update_scales = [&] {
    for (std::size_t k = 0; k < n_obj; ++k) {
      scale[k] = std::max(1e-12, obj_max[k] - obj_min[k]);
      delta[k] = options.delta_rel * scale[k];
    }
  };
  update_scales();

  // Surrogates: one per objective (paper: independent GPs per QoR metric).
  // The per-metric models are independent, so their fits and the
  // deterministic half of their refits run concurrently; prepare_refit
  // consumes the shared RNG serially, in objective order, exactly like a
  // sequential loop would.
  std::vector<std::unique_ptr<Surrogate>> models;
  models.reserve(n_obj);
  for (std::size_t k = 0; k < n_obj; ++k) models.push_back(factory(k));
  {
    common::TaskGroup group;
    for (std::size_t k = 0; k < n_obj; ++k) {
      group.run([&models, &train_x, &train_y, k] {
        models[k]->fit(train_x, train_y[k]);
      });
    }
    group.wait();
  }
  auto refit_all = [&] {
    for (auto& m : models) m->prepare_refit(rng);
    common::TaskGroup group;
    for (auto& m : models) {
      group.run([&m] { m->execute_refit(); });
    }
    group.wait();
  };
  refit_all();

  const double half_width = std::sqrt(options.tau);
  // Alive candidates (not dropped), ascending. Pruned in place as
  // candidates drop — the set only ever shrinks, so per-round work tracks
  // the surviving pool instead of rescanning all n candidates.
  std::vector<std::size_t> alive;
  alive.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] != Status::kDropped) alive.push_back(i);
  }
  auto prune_dropped = [&] {
    std::erase_if(alive,
                  [&](std::size_t i) { return status[i] == Status::kDropped; });
  };
  std::vector<std::size_t> alive_unrevealed;
  std::size_t rounds = 0;
  bool stopped_early = false;

  // ---- Main loop (Alg. 1 lines 3-13) ----
  while (rounds < options.max_rounds && runs_count < options.max_runs) {
    // Graceful shutdown: the previous round's batch has been fully drained
    // and committed, so stopping here leaves a clean journal — a resumed
    // run continues from exactly this point.
    if (options.should_stop && options.should_stop()) {
      stopped_early = true;
      break;
    }
    ++rounds;

    // Quarantines from the previous round's reveals leave the alive set.
    prune_dropped();
    // Alive & not yet revealed: these need fresh predictions.
    alive_unrevealed.clear();
    for (std::size_t i : alive) {
      if (!collapsed[i]) alive_unrevealed.push_back(i);
    }
    bool any_undecided = false;
    for (std::size_t i : alive) {
      if (status[i] == Status::kUndecided) {
        any_undecided = true;
        break;
      }
    }
    if (!any_undecided || alive_unrevealed.empty()) break;

    // ---- Model calibration: uncertainty regions (Eqs. (9)-(10)) ----
    std::vector<linalg::Vector> inputs;
    inputs.reserve(alive_unrevealed.size());
    for (std::size_t i : alive_unrevealed) inputs.push_back(pool.encoded()[i]);
    {
      // Each objective touches only component k of every region, so the
      // per-objective tasks write disjoint doubles.
      common::TaskGroup group;
      for (std::size_t k = 0; k < n_obj; ++k) {
        group.run([&, k] {
          linalg::Vector means, vars;
          // Candidate indices are stable round to round, so the cache
          // extends last round's forward solves instead of re-solving.
          models[k]->predict_batch_cached(alive_unrevealed, inputs, means,
                                          vars);
          for (std::size_t c = 0; c < alive_unrevealed.size(); ++c) {
            const std::size_t i = alive_unrevealed[c];
            const double sd = std::sqrt(std::max(0.0, vars[c]));
            const double new_lo = means[c] - half_width * sd;
            const double new_hi = means[c] + half_width * sd;
            lo[i][k] = std::max(lo[i][k], new_lo);
            hi[i][k] = std::min(hi[i][k], new_hi);
            if (lo[i][k] > hi[i][k]) {
              // Intersection vanished (model shifted between rounds):
              // collapse to the midpoint to preserve monotone, non-empty
              // regions.
              const double mid = 0.5 * (lo[i][k] + hi[i][k]);
              lo[i][k] = mid;
              hi[i][k] = mid;
            }
          }
        });
      }
      group.wait();
    }

    // Journal the round's uncertainty-region intersections (Eqs. (9)-(10)):
    // a sequence-sensitive digest over every alive candidate's (id, lo, hi)
    // — verified against the recording during replay, so a resumed run that
    // reconstructs different regions fails loudly instead of silently
    // diverging — plus cadenced full per-point snapshots for offline
    // inspection (JournalOptions::region_snapshot_every).
    if (jnl != nullptr) {
      std::uint64_t digest = 0x52474E53u;  // "RGNS"
      for (std::size_t i : alive) {
        digest = journal::mix_hash(digest, i);
        digest = journal::hash_doubles(digest, lo[i]);
        digest = journal::hash_doubles(digest, hi[i]);
      }
      jnl->record_regions(rounds, alive.size(), digest, [&] {
        std::vector<journal::RegionSnapshotEntry> snapshot;
        snapshot.reserve(alive.size());
        for (std::size_t i : alive) {
          snapshot.push_back({i, lo[i], hi[i]});
        }
        return snapshot;
      });
    }

    // ---- Decision-making (Eqs. (11)-(12)) ----
    // Dominance checks only need the alive set's corner fronts, and both
    // delta passes are batched weak-dominance queries against a front:
    // candidate i DROPS when some other front member's pessimistic corner
    // satisfies hi_j <= lo_i + delta, and classifies PARETO when no other
    // front member's optimistic corner satisfies lo_j <= hi_i - delta. A
    // sweep answers every query in one O((F + Q) log) pass; its only
    // subtlety is self-exclusion (j != i) — when the staircase hit could be
    // the candidate's own corner, a linear re-scan of the front settles it,
    // which stays cheap because only near-collapsed regions are ambiguous.
    const std::vector<std::size_t> pess_front = corner_front(alive, hi);
    {
      std::vector<char> in_front(n, 0);
      for (std::size_t j : pess_front) in_front[j] = 1;
      std::vector<pareto::Point> front_pts;
      front_pts.reserve(pess_front.size());
      for (std::size_t j : pess_front) front_pts.push_back(hi[j]);
      std::vector<std::size_t> query_idx;
      std::vector<pareto::Point> queries;
      for (std::size_t i : alive) {
        if (status[i] != Status::kUndecided) continue;
        query_idx.push_back(i);
        pareto::Point q(n_obj);
        // Same fp sum leq_with_slack compares against, precomputed once.
        for (std::size_t k = 0; k < n_obj; ++k) q[k] = lo[i][k] + delta[k];
        queries.push_back(std::move(q));
      }
      const auto hit = pareto::weakly_dominated_queries(front_pts, queries);
      for (std::size_t c = 0; c < query_idx.size(); ++c) {
        if (hit[c] == 0) continue;
        const std::size_t i = query_idx[c];
        bool drop = true;
        if (in_front[i] != 0 && leq_with_slack(hi[i], lo[i], delta)) {
          drop = false;
          for (std::size_t j : pess_front) {
            if (j != i && leq_with_slack(hi[j], lo[i], delta)) {
              drop = true;
              break;
            }
          }
        }
        if (drop) status[i] = Status::kDropped;
      }
    }
    prune_dropped();
    const std::vector<std::size_t> opt_front = corner_front(alive, lo);
    {
      std::vector<char> in_front(n, 0);
      for (std::size_t j : opt_front) in_front[j] = 1;
      std::vector<pareto::Point> front_pts;
      front_pts.reserve(opt_front.size());
      for (std::size_t j : opt_front) front_pts.push_back(lo[j]);
      std::vector<std::size_t> query_idx;
      std::vector<pareto::Point> queries;
      for (std::size_t i : alive) {
        if (status[i] != Status::kUndecided) continue;
        query_idx.push_back(i);
        pareto::Point q(n_obj);
        for (std::size_t k = 0; k < n_obj; ++k) q[k] = hi[i][k] - delta[k];
        queries.push_back(std::move(q));
      }
      const auto hit = pareto::weakly_dominated_queries(front_pts, queries);
      for (std::size_t c = 0; c < query_idx.size(); ++c) {
        const std::size_t i = query_idx[c];
        bool blocked = hit[c] != 0;
        if (blocked && in_front[i] != 0 &&
            dominates_with_margin(lo[i], hi[i], delta)) {
          blocked = false;
          for (std::size_t j : opt_front) {
            if (j != i && dominates_with_margin(lo[j], hi[i], delta)) {
              blocked = true;
              break;
            }
          }
        }
        if (!blocked) status[i] = Status::kPareto;
      }
    }

    // ---- Selection (Eq. (13)) ----
    // Rank alive, unrevealed candidates by normalized region diameter.
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
    if (ranked.empty()) break;
    const std::size_t batch =
        std::min({options.batch_size, ranked.size(),
                  options.max_runs - runs_count});
    if (batch == 0) break;
    // Largest diameter first; ties broken by candidate index so the
    // selection is identical across standard-library partial_sort
    // implementations.
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(batch),
                      ranked.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    // Reveal the whole batch first (one concurrent dispatch on live pools),
    // then fold it into each model with one batched update (one rank-1
    // append per point, one posterior solve per model — not batch x n_obj
    // separate refactorizations). Permanently failed candidates were
    // quarantined by reveal_many; only the successful part of the batch is
    // folded in.
    std::vector<std::size_t> batch_idx;
    batch_idx.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) batch_idx.push_back(ranked[b].second);
    const auto revealed_now =
        reveal_many(batch_idx, journal::Phase::kRound, rounds);
    if (!revealed_now.empty()) {
      std::vector<linalg::Vector> batch_xs;
      batch_xs.reserve(revealed_now.size());
      std::vector<linalg::Vector> batch_ys(n_obj);
      for (std::size_t i : revealed_now) {
        batch_xs.push_back(pool.encoded()[i]);
        for (std::size_t k = 0; k < n_obj; ++k) batch_ys[k].push_back(lo[i][k]);
      }
      common::TaskGroup group;
      for (std::size_t k = 0; k < n_obj; ++k) {
        group.run([&models, &batch_xs, &batch_ys, k] {
          models[k]->add_observation_batch(batch_xs, batch_ys[k]);
        });
      }
      group.wait();
    }
    update_scales();

    if (rounds % options.refit_every == 0) refit_all();

    if (options.on_round) {
      PPATunerProgress progress;
      progress.round = rounds;
      progress.runs = runs_count;
      tally_status(status, progress,
                   options.report_front_ids ? &progress.pareto_ids : nullptr);
      options.on_round(progress);
    }
  }

  // ---- Finalize ----
  // Any still-undecided candidates (budget stop) are classified by the
  // non-domination of their region midpoints among alive candidates.
  prune_dropped();
  std::vector<linalg::Vector> mid(n);
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
  // The non-dominated subset of everything already evaluated is known for
  // free (those configurations have been through the tool) — always include
  // it, so a budget-stopped run never discards observed Pareto points.
  {
    std::vector<std::size_t> revealed_idx;
    std::vector<pareto::Point> revealed_pts;
    for (std::size_t i = 0; i < n; ++i) {
      if (collapsed[i]) {
        revealed_idx.push_back(i);
        revealed_pts.push_back(lo[i]);  // == golden value
      }
    }
    for (std::size_t f : pareto::pareto_front_indices(revealed_pts)) {
      add(revealed_idx[f]);
    }
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
      if (const auto* tgp = dynamic_cast<const TransferGpSurrogate*>(m.get())) {
        diagnostics->task_correlations.push_back(tgp->task_correlation());
      }
    }
  }
  return result;
}

}  // namespace ppat::tuner
