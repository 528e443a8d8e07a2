// PPATuner: the paper's Pareto-driven parameter auto-tuning loop (Alg. 1).
//
// run_ppatuner calls one function per phase (src/tuner/ppatuner.cpp):
//   initialize, fit — initial reveals (topped up while all have failed),
//     then one surrogate per objective; refit every `refit_every` rounds.
//   predict_regions — model calibration: each alive candidate keeps an
//     axis-aligned region R(x) = [mu - sqrt(tau) sigma, mu + sqrt(tau) sigma]
//     (Eq. (9)) intersected with its previous one (Eq. (10)), so regions
//     shrink monotonically; journal_regions records their digest.
//   classify — one delta-dominance pass, run twice: a candidate DROPS when
//     some other alive candidate's pessimistic corner delta-dominates its
//     optimistic corner (Eq. (11)); it is classified PARETO when no other
//     alive candidate's optimistic corner delta-dominates its pessimistic
//     corner (Eq. (12)).
//   select_batch — the alive candidates (undecided or Pareto-classified)
//     with the largest region diameters go to the PD tool (Eq. (13)), B per
//     round, which the paper supports via parallel tool licenses.
//   reveal, fold_in, finalize — the batch goes through the pool and the
//     journal into every surrogate; finally the predicted Pareto set.
//
// The loop is parameterized on a SurrogateFactory: transfer GPs over source
// data (PPATuner proper) or plain per-objective GPs (the no-transfer
// ablation). The TCAD'19 baseline is not this loop — it runs its own
// predicted-front active-learning loop to a fixed budget
// (src/baselines/gp_baselines.cpp).
#pragma once

#include <cstdint>

#include "tuner/problem.hpp"
#include "tuner/surrogate.hpp"

namespace ppat::common {
class ThreadPool;
}  // namespace ppat::common

namespace ppat::journal {
class RunJournal;
}  // namespace ppat::journal

namespace ppat::tuner {

/// Per-round progress snapshot (see PPATunerOptions::on_round).
struct PPATunerProgress {
  std::size_t round = 0;
  std::size_t runs = 0;
  std::size_t dropped = 0;
  std::size_t classified_pareto = 0;
  std::size_t undecided = 0;
  /// Candidates classified Pareto so far, in index order.
  std::vector<std::size_t> pareto_ids;
};

struct PPATunerOptions {
  /// Scaling of the uncertainty region half-width: sqrt(tau) * sigma.
  double tau = 4.0;
  /// Per-objective dominance relaxation, as a fraction of each objective's
  /// observed golden range (the paper's delta vector, made scale-free).
  double delta_rel = 0.005;
  /// Configurations evaluated per round (parallel tool licenses).
  std::size_t batch_size = 5;
  /// Initial target-task reveals, as a fraction of the pool (paper: the
  /// target-side training data is at most 5% of the pool in total).
  double init_fraction = 0.01;
  std::size_t min_init = 10;
  /// Hyper-parameter refit cadence, in rounds (> 0).
  std::size_t refit_every = 3;
  /// Hard budget on tool runs (init + selections).
  std::size_t max_runs = 400;
  /// T_max, in rounds.
  std::size_t max_rounds = 200;
  std::uint64_t seed = 1;
  /// Threads for surrogate maintenance (per-objective fits/refits/predictions
  /// plus row-parallel linear algebra); 0 means hardware concurrency. Every
  /// value produces identical results — randomness is drawn serially and the
  /// parallel partitions are bit-stable — and 1 runs the work inline with no
  /// pool at all. The run owns a pool of this size for its duration and
  /// never resizes the process-global pool. Ignored when `thread_pool` is
  /// set.
  std::size_t num_threads = 0;
  /// Thread pool for all of this run's surrogate maintenance and linear
  /// algebra, e.g. one pool per server session. Null (default): the run
  /// builds its own pool of `num_threads`. Either way the run brackets
  /// itself in a common::ScopedPool over that pool and never touches the
  /// global singleton, so concurrent in-process runs neither share nor
  /// resize each other's pools (results are identical for every pool
  /// size). Must outlive the call; not owned.
  common::ThreadPool* thread_pool = nullptr;
  /// Optional per-round observer (convergence studies); called after each
  /// round's selection step.
  std::function<void(const PPATunerProgress&)> on_round;
  /// Optional durable run journal (crash-safe resume; see src/journal/).
  /// Fresh journal (RunJournal::create): every selection, reveal outcome,
  /// RNG state, and uncertainty-region digest is persisted as the loop
  /// runs; the tuner appends each reveal outcome the moment the pool
  /// reports it (CandidatePool::RevealObserver), mid-batch on live pools.
  /// Resumed journal (RunJournal::open_resume): the loop replays —
  /// recorded reveals are served from the journal instead of the pool, the
  /// journaled RNG states and region digests are cross-checked every round
  /// (JournalMismatchError on divergence), and once the recording is
  /// exhausted the run continues live, bit-identically to an uninterrupted
  /// run. Not owned; must outlive the call. nullptr disables journaling.
  journal::RunJournal* journal = nullptr;
  /// Graceful-shutdown poll, checked at the top of every round. When it
  /// returns true the loop stops selecting, finalizes the result from the
  /// regions it has (same classification as a budget stop), and records a
  /// clean shutdown in the journal — pair with
  /// journal::install_graceful_shutdown_handlers / shutdown_requested so
  /// SIGINT/SIGTERM drains the in-flight batch instead of killing it.
  std::function<bool()> should_stop;
};

struct PPATunerDiagnostics {
  std::size_t rounds = 0;
  std::size_t dropped = 0;
  std::size_t classified_pareto = 0;
  std::size_t undecided = 0;
  /// Candidates quarantined because their evaluation permanently failed
  /// (counted inside `dropped` as well; 0 on benchmark replay).
  std::size_t failed_evaluations = 0;
  /// Learned source-target correlation per objective (transfer GP only;
  /// empty otherwise).
  std::vector<double> task_correlations;
  /// Reveal outcomes served from the journal during resume (0 on fresh
  /// runs): replayed reveals cost no tool time and do not touch the pool.
  std::size_t replayed_reveals = 0;
  /// True when options.should_stop ended the run before its budget.
  bool stopped_early = false;
};

/// Runs the loop on `pool` with surrogates from `factory` (one per
/// objective). Returns the predicted Pareto-optimal candidate set.
///
/// Works against any CandidatePool. Reveals go through reveal_batch, so a
/// LiveCandidatePool dispatches each round's batch concurrently across tool
/// licenses; a candidate whose evaluation permanently fails is quarantined
/// (dropped, never re-selected) and the successful part of the batch is
/// still folded into the surrogates. Throws std::invalid_argument when
/// max_runs == 0, refit_every == 0 or the pool is empty, and
/// PoolEvaluationError when every initialization run fails.
TuningResult run_ppatuner(CandidatePool& pool, const SurrogateFactory& factory,
                          const PPATunerOptions& options,
                          PPATunerDiagnostics* diagnostics = nullptr);

}  // namespace ppat::tuner
