// Durable run journal: a write-ahead log that makes multi-day tuning runs
// crash-safe.
//
// Every tool evaluation costs hours of wall-clock in the production setting
// this library targets (paper Alg. 1 assumes Innovus runs), so the revealed
// observations ARE the expensive asset. The journal records, per PAL
// iteration, the selected candidate ids, every completed reveal outcome
// (objective vector, status, attempt count), the RNG stream state, and a
// digest (plus optional full snapshots) of the per-point uncertainty-region
// intersections (paper Eqs. (9)-(10)). A crashed, OOM-killed, or SIGTERMed
// run resumes from the journal and continues BIT-IDENTICALLY to an
// uninterrupted run: the tuner deterministically replays the decision loop
// with reveals served from the journal instead of the tool, so the
// surrogates (rebuilt via fit/add_observation_batch replay), the alive and
// quarantined sets, the monotone uncertainty regions, and the RNG stream all
// reconstruct exactly; the journaled RNG snapshots and region digests are
// cross-checked at every round so a journal that does not match the run
// configuration fails fast instead of silently diverging.
//
// On-disk format (versioned; see DESIGN.md section 11): a journal is a
// DIRECTORY of segment files. The active segment is `NNNNNN.open`; when it
// grows past JournalOptions::segment_bytes it is fsynced and atomically
// renamed to `NNNNNN.seg` (rename-on-commit: a sealed segment is either
// fully present or absent). Each segment is a journal::FramedLog
// (framed_log.hpp, shared with the RevealLedger): records are
// length-prefixed and CRC32-guarded, so a torn or corrupted tail is DETECTED
// AND TRUNCATED at the last valid record on resume — never trusted. Every
// record is written through to the active segment the moment it is
// appended (the selection when a batch opens, each reveal as its run
// completes — the tuner's CandidatePool::RevealObserver, which
// tuner::LiveCandidatePool calls from flow::EvalService's per-completion
// hook — and the commit marker when the batch closes);
// a plain write() to the page cache survives SIGKILL/OOM-kill, so a killed
// process loses only runs still in flight, never completed ones. fsync
// happens once per batch commit (JournalOptions::fsync_each_commit), so
// only a kernel crash or power loss can drop the un-fsynced tail of one
// batch. A failed fsync throws JournalError rather than passing silently.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "journal/framed_log.hpp"

namespace ppat::journal {

/// The journal exists and is readable but does not describe the run being
/// resumed (different seed/options/pool, or replay diverged from the
/// recorded RNG states / region digests). Resuming would silently corrupt
/// the search, so this is fatal.
class JournalMismatchError : public JournalError {
 public:
  using JournalError::JournalError;
};

/// Outcome status of one tool run. flow::RunStatus is an alias of this
/// enum, declared here so the journal library depends only on ppat_common.
enum class RevealStatus : unsigned char { kOk = 0, kFailed = 1, kTimedOut = 2 };
const char* reveal_status_name(RevealStatus status);

/// Which selection step a batch belongs to.
enum class Phase : unsigned char { kInit = 0, kTopUp = 1, kRound = 2 };

enum class ShutdownReason : unsigned char {
  kCompleted = 0,      ///< the loop terminated normally
  kStopRequested = 1,  ///< graceful stop (SIGINT/SIGTERM drain)
};

/// One journaled evaluation outcome.
struct RevealRecord {
  std::uint64_t id = 0;  ///< candidate index in the pool
  RevealStatus status = RevealStatus::kFailed;
  std::uint32_t attempts = 0;  ///< tool attempts (0 = never dispatched)
  double elapsed_ms = 0.0;
  std::vector<double> objectives;  ///< objective vector, valid iff kOk
  std::string error;               ///< failure reason iff status != kOk

  bool ok() const { return status == RevealStatus::kOk; }
};

/// Identity of a run: a journal only resumes the exact configuration it was
/// recorded under. `pool_fingerprint` hashes the encoded candidate matrix,
/// so even a reordered pool is rejected.
struct RunMeta {
  std::uint64_t seed = 0;
  double tau = 0.0;
  double delta_rel = 0.0;
  double init_fraction = 0.0;
  std::uint64_t batch_size = 0;
  std::uint64_t min_init = 0;
  std::uint64_t refit_every = 0;
  std::uint64_t max_runs = 0;
  std::uint64_t max_rounds = 0;
  std::uint64_t pool_size = 0;
  std::uint64_t num_objectives = 0;
  std::vector<std::uint64_t> objectives;
  std::uint64_t pool_fingerprint = 0;

  bool operator==(const RunMeta&) const = default;
};

/// Per-candidate uncertainty region in a full snapshot record.
struct RegionSnapshotEntry {
  std::uint64_t id = 0;
  std::vector<double> lo;
  std::vector<double> hi;
};

struct JournalOptions {
  /// Rotate (seal + atomically rename) the active segment above this size.
  std::size_t segment_bytes = std::size_t{4} << 20;
  /// fsync the active segment at every batch commit. A SIGKILL never loses
  /// page-cache data, so this only matters for kernel crashes / power loss;
  /// still cheap enough to default on (one fsync per selection batch).
  bool fsync_each_commit = true;
  /// Write a FULL per-point region snapshot every this-many rounds
  /// (0 = digests only; digests alone are sufficient for verified resume,
  /// snapshots serve offline inspection and defense-in-depth).
  std::size_t region_snapshot_every = 0;
};

/// Order-insensitive-free 64-bit mixing (boost::hash_combine style); used
/// for the pool fingerprint and region digests. Sequence-sensitive.
inline std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}
std::uint64_t hash_doubles(std::uint64_t h, std::span<const double> values);

// ---- Parsed journal contents (introspection / tests / tooling) -----------

struct JournalEntry {
  enum class Kind : unsigned char {
    kRunHeader = 1,
    kSelection = 2,
    kReveal = 3,
    kBatchCommit = 4,
    kRegions = 5,
    kShutdown = 6,
  };
  Kind kind = Kind::kRunHeader;
  // kRunHeader
  RunMeta meta;
  // kSelection / kBatchCommit
  Phase phase = Phase::kInit;
  std::uint64_t round = 0;
  std::vector<std::uint64_t> ids;
  // kReveal
  RevealRecord reveal;
  // kBatchCommit
  std::uint64_t runs_after = 0;
  std::array<std::uint64_t, 4> rng_state{};
  // kRegions
  std::uint64_t alive_count = 0;
  std::uint64_t region_digest = 0;
  std::vector<RegionSnapshotEntry> snapshot;  ///< empty when digest-only
  // kShutdown
  ShutdownReason reason = ShutdownReason::kCompleted;
};

/// Everything read back from a journal directory, with corruption metadata.
struct JournalContents {
  std::vector<JournalEntry> entries;
  /// True when a torn/corrupt tail was detected; entries past it were
  /// discarded (and physically truncated by RunJournal::open_resume).
  bool truncated = false;
  /// Human-readable description of the truncation point (empty when clean).
  std::string truncation_note;
  std::size_t segments = 0;  ///< segment files read
};

/// Reads a journal directory without opening it for appending. Torn or
/// CRC-corrupt tails are reported via `truncated`, not thrown; structural
/// impossibilities (bad magic, unknown version) throw JournalError.
JournalContents read_journal(const std::string& dir);

// ---- The write-ahead log --------------------------------------------------

/// Append-side (and resume-side) handle on one run's journal. The tuner
/// drives it through a strict per-batch protocol:
///
///   begin_run(meta)                      once, before any batch
///   for each selection batch:
///     begin_batch(phase, round, ids)  -> replayed outcomes, maybe partial
///     append_reveal(record)              per live outcome as the pool
///                                        reports it (thread-safe; called
///                                        from EvalService workers)
///     commit_batch(..., rng_state)       flush point; verifies RNG on replay
///   record_regions(round, digest, ...)   once per round, before selection
///   record_shutdown(reason, rounds)      on exit (graceful or completed)
///
/// Opened via create() the journal starts empty and records. Opened via
/// open_resume() it first REPLAYS: begin_batch serves recorded outcomes and
/// verifies the selection against the recorded one; commit_batch and
/// record_regions verify RNG words and region digests instead of writing.
/// When the recorded entries are exhausted (including mid-batch, after a
/// crash) the journal transparently switches to recording, so one code path
/// in the tuner covers fresh runs, resumed runs, and torn tails.
class RunJournal {
 public:
  /// Creates `dir` (must not already contain a journal) and opens segment 1.
  static std::unique_ptr<RunJournal> create(const std::string& dir,
                                            JournalOptions options = {});
  /// Opens an existing journal for resume: reads it back, physically
  /// truncates any torn/corrupt tail (logging what was dropped), and arms
  /// replay. Throws JournalError when `dir` holds no journal.
  static std::unique_ptr<RunJournal> open_resume(const std::string& dir,
                                                 JournalOptions options = {});

  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// True while recorded entries remain to be replayed.
  bool replaying() const;
  /// Reveal outcomes served from the journal so far (diagnostics).
  std::size_t replayed_reveals() const { return replayed_reveals_; }
  const std::string& directory() const { return dir_; }
  const JournalOptions& options() const { return options_; }
  /// Wall-clock seconds spent RECORDING (record encoding, writes, fsync)
  /// over the journal's lifetime; replay-verification work on resume is
  /// excluded, so the number means the same thing for fresh and resumed
  /// runs. The per-round cost is far smaller than run-to-run scheduling
  /// noise, so benchmarks report this directly instead of differencing two
  /// end-to-end timings.
  double write_seconds() const;

  /// Fresh: appends the run header. Resume: verifies `meta` against the
  /// recorded header, throwing JournalMismatchError on any difference.
  void begin_run(const RunMeta& meta);

  struct BatchReplay {
    /// Recorded outcomes for this batch's ids; a torn batch yields a strict
    /// subset (the caller evaluates the rest live).
    std::unordered_map<std::uint64_t, RevealRecord> outcomes;
    /// True when the recorded batch reached its commit marker.
    bool committed = false;
  };
  /// Opens a selection batch. Replay: verifies (phase, round, ids) against
  /// the recorded selection and returns the recorded outcomes. Recording:
  /// appends the selection record and returns an empty BatchReplay.
  BatchReplay begin_batch(Phase phase, std::uint64_t round,
                          std::span<const std::size_t> ids);
  /// Appends one reveal outcome for the open batch and writes it through to
  /// the segment file immediately, so the record survives a SIGKILL the
  /// moment the call returns. Ids already journaled for this batch
  /// (replayed, or appended before) are skipped, as a safety check against
  /// double-writing. Thread-safe. No-op when no batch is open.
  void append_reveal(const RevealRecord& record);
  /// Closes the batch: recording appends the commit marker and flushes
  /// (+fsync per JournalOptions) — the fsync point against kernel crash /
  /// power loss; replay verifies `runs_after` and `rng_state` against the
  /// recorded commit.
  void commit_batch(Phase phase, std::uint64_t round, std::uint64_t runs_after,
                    const std::array<std::uint64_t, 4>& rng_state);

  /// Journals (or, on replay, verifies) the round's uncertainty-region
  /// digest. `snapshot` is invoked only when a full snapshot is due per
  /// JournalOptions::region_snapshot_every.
  void record_regions(
      std::uint64_t round, std::uint64_t alive_count, std::uint64_t digest,
      const std::function<std::vector<RegionSnapshotEntry>()>& snapshot = {});

  /// Journals the loop exit (informational; replay skips recorded ones).
  void record_shutdown(ShutdownReason reason, std::uint64_t rounds);

  /// Flushes buffered records to disk (fsync per options).
  void flush();

 private:
  RunJournal(std::string dir, JournalOptions options);

  void load_for_resume();
  void append_entry_locked(JournalEntry::Kind kind, std::string_view payload);
  void rotate_locked();
  void open_segment_locked(std::size_t seq);
  const JournalEntry* peek() const;
  void advance();

  std::string dir_;
  JournalOptions options_;

  mutable std::mutex mutex_;
  // Replay state.
  std::vector<JournalEntry> entries_;
  std::size_t cursor_ = 0;
  std::size_t replayed_reveals_ = 0;
  // Open-batch state.
  bool batch_open_ = false;
  Phase batch_phase_ = Phase::kInit;
  std::uint64_t batch_round_ = 0;
  std::unordered_set<std::uint64_t> batch_recorded_ids_;
  std::optional<JournalEntry> pending_commit_;  ///< replayed commit marker
  // Writer state: the active segment.
  FramedLog log_;
  std::size_t segment_seq_ = 0;
  std::uint64_t rounds_snapshotted_ = 0;
  double write_seconds_ = 0.0;
};

// ---- Graceful shutdown ----------------------------------------------------
//
// One process-level SIGINT/SIGTERM dispatcher serves every run in the
// process: the (async-signal-safe) handler fans each signal out to all
// registered runs, so N concurrent in-process tuning sessions each observe
// the stop on their own token — no session's registration clobbers
// another's graceful-stop path. Single-run drivers can keep using the
// process-wide flag functions below; multi-session hosts register one
// ScopedSignalStop per run.

/// Installs the dispatcher's SIGINT/SIGTERM handlers (idempotent — the
/// dispatcher is process-level state, so repeated installation from many
/// runs is safe and changes nothing). Drivers poll shutdown_requested()
/// via PPATunerOptions::should_stop so the tuner drains the in-flight
/// batch, commits the journal, and returns cleanly.
void install_graceful_shutdown_handlers();
/// True once SIGINT or SIGTERM was received after installation
/// (process-wide; per-run visibility is ScopedSignalStop's job).
bool shutdown_requested();
/// Clears the process-wide flag (tests). Does not clear per-run tokens.
void reset_shutdown_flag();

/// One run's registration with the signal dispatcher, RAII. Construction
/// installs the handlers (idempotently) and claims a dispatcher slot;
/// destruction releases it. A SIGINT/SIGTERM arriving while registered
/// fires EVERY live token, so concurrent sessions all drain; a token
/// created after the signal starts unfired. request_stop() fires only this
/// token (per-session cancellation, server shutdown fan-in). Thread-safe;
/// stop_requested() is wait-free and safe to poll from should_stop.
class ScopedSignalStop {
 public:
  ScopedSignalStop();
  ~ScopedSignalStop();

  ScopedSignalStop(const ScopedSignalStop&) = delete;
  ScopedSignalStop& operator=(const ScopedSignalStop&) = delete;

  bool stop_requested() const;
  void request_stop();

 private:
  /// Dispatcher slot index; -1 when the slot table was exhausted and the
  /// token fell back to the process-wide flag.
  int slot_ = -1;
};

}  // namespace ppat::journal
