// Tests for the durable run journal: record framing, segment rotation,
// corrupt-tail truncation, meta verification, and replay-based bit-identical
// resume through run_ppatuner.
#include "journal/journal.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "synthetic_benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat::journal {
namespace {

namespace fs = std::filesystem;

/// Fresh (non-existent) journal directory path under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ppat_journal_" + name);
  fs::remove_all(dir);
  return dir.string();
}

RunMeta small_meta() {
  RunMeta meta;
  meta.seed = 42;
  meta.tau = 4.0;
  meta.delta_rel = 0.005;
  meta.init_fraction = 0.01;
  meta.batch_size = 5;
  meta.min_init = 10;
  meta.refit_every = 3;
  meta.max_runs = 100;
  meta.max_rounds = 50;
  meta.pool_size = 200;
  meta.num_objectives = 2;
  meta.objectives = {1, 2};
  meta.pool_fingerprint = 0xDEADBEEFCAFEF00Dull;
  return meta;
}

RevealRecord ok_reveal(std::uint64_t id, double a, double b) {
  RevealRecord rec;
  rec.id = id;
  rec.status = RevealStatus::kOk;
  rec.attempts = 1;
  rec.elapsed_ms = 12.5;
  rec.objectives = {a, b};
  return rec;
}

/// Writes one complete single-batch run and returns the directory.
std::string write_small_run(const std::string& name, JournalOptions options = {}) {
  const std::string dir = fresh_dir(name);
  auto jnl = RunJournal::create(dir, options);
  jnl->begin_run(small_meta());
  const std::vector<std::size_t> ids = {3, 7, 11};
  jnl->begin_batch(Phase::kInit, 0, ids);
  jnl->append_reveal(ok_reveal(3, 1.0, 2.0));
  jnl->append_reveal(ok_reveal(7, 3.0, 4.0));
  RevealRecord failed;
  failed.id = 11;
  failed.status = RevealStatus::kTimedOut;
  failed.attempts = 2;
  failed.error = "tool run exceeded deadline";
  jnl->append_reveal(failed);
  jnl->commit_batch(Phase::kInit, 0, 2, {1, 2, 3, 4});
  jnl->record_regions(1, 150, 0xABCDull);
  jnl->record_shutdown(ShutdownReason::kCompleted, 1);
  return dir;
}

TEST(Journal, FramingRoundTrip) {
  const std::string dir = write_small_run("roundtrip");
  const JournalContents contents = read_journal(dir);
  EXPECT_FALSE(contents.truncated);
  EXPECT_EQ(contents.segments, 1u);
  ASSERT_EQ(contents.entries.size(), 8u);

  const auto& header = contents.entries[0];
  EXPECT_EQ(header.kind, JournalEntry::Kind::kRunHeader);
  EXPECT_EQ(header.meta, small_meta());

  const auto& sel = contents.entries[1];
  EXPECT_EQ(sel.kind, JournalEntry::Kind::kSelection);
  EXPECT_EQ(sel.phase, Phase::kInit);
  EXPECT_EQ(sel.ids, (std::vector<std::uint64_t>{3, 7, 11}));

  const auto& rev = contents.entries[2];
  EXPECT_EQ(rev.kind, JournalEntry::Kind::kReveal);
  EXPECT_EQ(rev.reveal.id, 3u);
  EXPECT_TRUE(rev.reveal.ok());
  EXPECT_EQ(rev.reveal.objectives, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(rev.reveal.elapsed_ms, 12.5);

  const auto& bad = contents.entries[4];
  EXPECT_EQ(bad.reveal.status, RevealStatus::kTimedOut);
  EXPECT_EQ(bad.reveal.attempts, 2u);
  EXPECT_EQ(bad.reveal.error, "tool run exceeded deadline");
  EXPECT_TRUE(bad.reveal.objectives.empty());

  const auto& commit = contents.entries[5];
  EXPECT_EQ(commit.kind, JournalEntry::Kind::kBatchCommit);
  EXPECT_EQ(commit.runs_after, 2u);
  EXPECT_EQ(commit.rng_state, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));

  const auto& regions = contents.entries[6];
  EXPECT_EQ(regions.kind, JournalEntry::Kind::kRegions);
  EXPECT_EQ(regions.round, 1u);
  EXPECT_EQ(regions.alive_count, 150u);
  EXPECT_EQ(regions.region_digest, 0xABCDull);
  EXPECT_TRUE(regions.snapshot.empty());

  const auto& stop = contents.entries[7];
  EXPECT_EQ(stop.kind, JournalEntry::Kind::kShutdown);
  EXPECT_EQ(stop.reason, ShutdownReason::kCompleted);
}

TEST(Journal, RotationSealsSegmentsAtomically) {
  JournalOptions options;
  options.segment_bytes = 128;  // force a rotation every record or two
  options.fsync_each_commit = false;
  const std::string dir = fresh_dir("rotation");
  {
    auto jnl = RunJournal::create(dir, options);
    jnl->begin_run(small_meta());
    for (std::uint64_t round = 0; round < 8; ++round) {
      const std::vector<std::size_t> ids = {round};
      jnl->begin_batch(Phase::kRound, round, ids);
      jnl->append_reveal(ok_reveal(round, 1.0 * round, 2.0 * round));
      jnl->commit_batch(Phase::kRound, round, round + 1,
                        {round, round + 1, round + 2, round + 3});
    }
    jnl->record_shutdown(ShutdownReason::kCompleted, 8);
  }
  std::size_t sealed = 0, open = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".seg") ++sealed;
    if (e.path().extension() == ".open") ++open;
  }
  EXPECT_GT(sealed, 1u);
  EXPECT_EQ(open, 1u);

  const JournalContents contents = read_journal(dir);
  EXPECT_FALSE(contents.truncated);
  EXPECT_EQ(contents.segments, sealed + open);
  // 1 header + 8 x (selection + reveal + commit) + shutdown.
  ASSERT_EQ(contents.entries.size(), 1u + 8u * 3u + 1u);
  for (std::uint64_t round = 0; round < 8; ++round) {
    const auto& commit = contents.entries[1 + round * 3 + 2];
    ASSERT_EQ(commit.kind, JournalEntry::Kind::kBatchCommit);
    EXPECT_EQ(commit.round, round);
    EXPECT_EQ(commit.runs_after, round + 1);
  }
}

TEST(Journal, RegionSnapshotsWrittenOnCadence) {
  JournalOptions options;
  options.region_snapshot_every = 2;
  const std::string dir = fresh_dir("snapshots");
  {
    auto jnl = RunJournal::create(dir, options);
    jnl->begin_run(small_meta());
    for (std::uint64_t round = 1; round <= 4; ++round) {
      jnl->record_regions(round, 10, 0x1000 + round, [round] {
        std::vector<RegionSnapshotEntry> snap(1);
        snap[0].id = round;
        snap[0].lo = {0.0, -1.0};
        snap[0].hi = {1.0, 2.0};
        return snap;
      });
    }
    jnl->record_shutdown(ShutdownReason::kCompleted, 4);
  }
  const JournalContents contents = read_journal(dir);
  std::size_t with_snapshot = 0;
  for (const auto& entry : contents.entries) {
    if (entry.kind != JournalEntry::Kind::kRegions) continue;
    if (!entry.snapshot.empty()) {
      ++with_snapshot;
      ASSERT_EQ(entry.snapshot.size(), 1u);
      EXPECT_EQ(entry.snapshot[0].id, entry.round);
      EXPECT_EQ(entry.snapshot[0].lo, (std::vector<double>{0.0, -1.0}));
      EXPECT_EQ(entry.snapshot[0].hi, (std::vector<double>{1.0, 2.0}));
    }
  }
  EXPECT_EQ(with_snapshot, 2u);  // rounds 2 and 4
}

TEST(Journal, CorruptTailIsDetectedTruncatedAndRepaired) {
  const std::string dir = write_small_run("corrupt");
  // Locate the single segment file and flip one byte well past the header,
  // corrupting some record's CRC (or its framing — both must be caught).
  fs::path segment;
  for (const auto& e : fs::directory_iterator(dir)) segment = e.path();
  const auto size = fs::file_size(segment);
  ASSERT_GT(size, 64u);
  const std::uint64_t victim = size - size / 4;  // inside the tail records
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(victim));
    f.write(&byte, 1);
  }

  const JournalContents before = read_journal(dir);
  EXPECT_TRUE(before.truncated);
  EXPECT_FALSE(before.truncation_note.empty());
  ASSERT_GE(before.entries.size(), 1u);  // the header must survive
  EXPECT_LT(before.entries.size(), 8u);
  EXPECT_EQ(before.entries[0].kind, JournalEntry::Kind::kRunHeader);

  // open_resume physically truncates the torn tail: a re-read is clean and
  // holds exactly the surviving prefix.
  {
    auto jnl = RunJournal::open_resume(dir);
    EXPECT_TRUE(jnl->replaying());
    jnl->begin_run(small_meta());  // header survived -> verifies, no throw
  }
  const JournalContents after = read_journal(dir);
  EXPECT_FALSE(after.truncated);
  EXPECT_EQ(after.entries.size(), before.entries.size());
}

TEST(Journal, RevealsAreDurableBeforeCommit) {
  // Per-completion records must reach the segment file the moment
  // append_reveal returns — a SIGKILL mid-batch loses only runs still in
  // flight, not completed ones. Read the directory with an independent
  // reader while the writer's batch is still open.
  const std::string dir = fresh_dir("durable");
  auto jnl = RunJournal::create(dir);
  jnl->begin_run(small_meta());
  jnl->begin_batch(Phase::kInit, 0, std::vector<std::size_t>{3, 7});
  jnl->append_reveal(ok_reveal(3, 1.0, 2.0));
  jnl->append_reveal(ok_reveal(7, 3.0, 4.0));

  const JournalContents mid = read_journal(dir);
  EXPECT_FALSE(mid.truncated);
  ASSERT_EQ(mid.entries.size(), 4u);  // header, selection, two reveals
  EXPECT_EQ(mid.entries[1].kind, JournalEntry::Kind::kSelection);
  EXPECT_EQ(mid.entries[2].kind, JournalEntry::Kind::kReveal);
  EXPECT_EQ(mid.entries[2].reveal.id, 3u);
  EXPECT_EQ(mid.entries[3].reveal.id, 7u);

  jnl->commit_batch(Phase::kInit, 0, 2, {1, 2, 3, 4});
  jnl->record_shutdown(ShutdownReason::kCompleted, 1);
}

TEST(Journal, PureReplayAccruesNoWriteTime) {
  const std::string dir = fresh_dir("replaytime");
  {
    auto jnl = RunJournal::create(dir);
    jnl->begin_run(small_meta());
    jnl->begin_batch(Phase::kInit, 0, std::vector<std::size_t>{3});
    jnl->append_reveal(ok_reveal(3, 1.0, 2.0));
    jnl->commit_batch(Phase::kInit, 0, 1, {1, 2, 3, 4});
    jnl->record_regions(1, 10, 0xABCDull);
    jnl->record_shutdown(ShutdownReason::kCompleted, 1);
    EXPECT_GT(jnl->write_seconds(), 0.0);
  }
  // write_seconds() covers recording only; replay verification on resume
  // must not be misattributed as write cost.
  auto jnl = RunJournal::open_resume(dir);
  jnl->begin_run(small_meta());
  jnl->begin_batch(Phase::kInit, 0, std::vector<std::size_t>{3});
  jnl->commit_batch(Phase::kInit, 0, 1, {1, 2, 3, 4});
  jnl->record_regions(1, 10, 0xABCDull);
  jnl->record_shutdown(ShutdownReason::kCompleted, 1);
  EXPECT_EQ(jnl->write_seconds(), 0.0);
}

TEST(Journal, OverflowingSegmentNameIsAJournalError) {
  const std::string dir = write_small_run("hugestem");
  // An all-digit stem too large for any integer type must surface as the
  // documented JournalError, not escape as std::out_of_range.
  std::ofstream(fs::path(dir) / "99999999999999999999.seg").put('\0');
  EXPECT_THROW(read_journal(dir), JournalError);
  EXPECT_THROW(RunJournal::open_resume(dir), JournalError);
}

TEST(Journal, MetaMismatchIsFatal) {
  const std::string dir = write_small_run("mismatch");
  auto jnl = RunJournal::open_resume(dir);
  RunMeta other = small_meta();
  other.seed = 43;
  EXPECT_THROW(jnl->begin_run(other), JournalMismatchError);
}

TEST(Journal, CreateRefusesExistingJournal) {
  const std::string dir = write_small_run("recreate");
  EXPECT_THROW(RunJournal::create(dir), JournalError);
}

TEST(Journal, OpenResumeRequiresAJournal) {
  EXPECT_THROW(RunJournal::open_resume(fresh_dir("absent")), JournalError);
}

TEST(Journal, ReplayServesRecordedOutcomesThenSwitchesToRecording) {
  const std::string dir = write_small_run("replay");
  auto jnl = RunJournal::open_resume(dir);
  EXPECT_TRUE(jnl->replaying());
  jnl->begin_run(small_meta());

  const std::vector<std::size_t> ids = {3, 7, 11};
  auto replay = jnl->begin_batch(Phase::kInit, 0, ids);
  EXPECT_TRUE(replay.committed);
  ASSERT_EQ(replay.outcomes.size(), 3u);
  EXPECT_TRUE(replay.outcomes.at(3).ok());
  EXPECT_EQ(replay.outcomes.at(3).objectives, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(replay.outcomes.at(11).status, RevealStatus::kTimedOut);
  jnl->commit_batch(Phase::kInit, 0, 2, {1, 2, 3, 4});
  EXPECT_EQ(jnl->replayed_reveals(), 3u);

  jnl->record_regions(1, 150, 0xABCDull);
  // The recorded run ended here; a new batch transparently records.
  const std::vector<std::size_t> fresh_ids = {20};
  auto fresh = jnl->begin_batch(Phase::kRound, 1, fresh_ids);
  EXPECT_TRUE(fresh.outcomes.empty());
  EXPECT_FALSE(fresh.committed);
  jnl->append_reveal(ok_reveal(20, 5.0, 6.0));
  jnl->commit_batch(Phase::kRound, 1, 3, {5, 6, 7, 8});
  EXPECT_FALSE(jnl->replaying());
  jnl->record_shutdown(ShutdownReason::kCompleted, 1);
}

TEST(Journal, ReplayRejectsDivergentSelection) {
  const std::string dir = write_small_run("divergent");
  auto jnl = RunJournal::open_resume(dir);
  jnl->begin_run(small_meta());
  const std::vector<std::size_t> wrong = {3, 7, 12};
  EXPECT_THROW(jnl->begin_batch(Phase::kInit, 0, wrong), JournalMismatchError);
}

TEST(Journal, ReplayRejectsDivergentRngState) {
  const std::string dir = write_small_run("rngdiverge");
  auto jnl = RunJournal::open_resume(dir);
  jnl->begin_run(small_meta());
  const std::vector<std::size_t> ids = {3, 7, 11};
  jnl->begin_batch(Phase::kInit, 0, ids);
  EXPECT_THROW(jnl->commit_batch(Phase::kInit, 0, 2, {9, 9, 9, 9}),
               JournalMismatchError);
}

TEST(Journal, ReplayRejectsDivergentRegionDigest) {
  const std::string dir = write_small_run("regiondiverge");
  auto jnl = RunJournal::open_resume(dir);
  jnl->begin_run(small_meta());
  const std::vector<std::size_t> ids = {3, 7, 11};
  jnl->begin_batch(Phase::kInit, 0, ids);
  jnl->commit_batch(Phase::kInit, 0, 2, {1, 2, 3, 4});
  EXPECT_THROW(jnl->record_regions(1, 150, 0x9999ull), JournalMismatchError);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

/// Appends one CRC-valid `u32 len | u32 crc | u8 kind | payload` frame.
void append_frame(const fs::path& path, std::uint8_t kind,
                  const std::string& payload) {
  std::string body(1, static_cast<char>(kind));
  body += payload;
  std::string frame;
  put_le(frame, payload.size(), 4);
  put_le(frame, crc32(body.data(), body.size()), 4);
  frame += body;
  std::ofstream(path, std::ios::binary | std::ios::app) << frame;
}

// Format golden: a fixed call sequence must produce this exact segment, so
// any change to the record encoding or the frame shows up here.
TEST(Journal, SegmentBytesMatchFormatGolden) {
  JournalOptions options;
  options.region_snapshot_every = 1;
  const std::string dir = fresh_dir("golden");
  {
    auto jnl = RunJournal::create(dir, options);
    jnl->begin_run(small_meta());
    const std::vector<std::size_t> ids = {3, 11};
    jnl->begin_batch(Phase::kInit, 0, ids);
    jnl->append_reveal(ok_reveal(3, 1.0, 2.0));
    RevealRecord failed;
    failed.id = 11;
    failed.status = RevealStatus::kFailed;
    failed.attempts = 3;
    failed.elapsed_ms = 7.25;
    failed.error = "license server unreachable";
    jnl->append_reveal(failed);
    jnl->commit_batch(Phase::kInit, 0, 2, {1, 2, 3, 4});
    jnl->record_regions(1, 2, 0xABCDull, [] {
      std::vector<RegionSnapshotEntry> snap(2);
      snap[0].id = 5;
      snap[0].lo = {0.5, -1.5};
      snap[0].hi = {1.5, 2.5};
      snap[1].id = 9;
      snap[1].lo = {-0.25, 0.0};
      snap[1].hi = {0.75, 3.0};
      return snap;
    });
    jnl->record_shutdown(ShutdownReason::kCompleted, 1);
  }
  const std::string bytes = read_bytes(fs::path(dir) / "000001.open");
  EXPECT_EQ(bytes.size(), 551u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x7D5BB884u);
}

TEST(Journal, OversizedElementCountIsAJournalError) {
  // A CRC-valid selection record whose id count (2^62) cannot fit in the
  // payload must be rejected as corrupt before anything is allocated.
  const std::string dir = write_small_run("hugecount");
  std::string payload;
  put_le(payload, static_cast<std::uint8_t>(Phase::kRound), 1);
  put_le(payload, 1, 8);              // round
  put_le(payload, 1ull << 62, 8);     // id count
  append_frame(fs::path(dir) / "000001.open",
               static_cast<std::uint8_t>(JournalEntry::Kind::kSelection),
               payload);
  EXPECT_THROW(read_journal(dir), JournalError);
}

// The destructor flushes the buffered region record; when that final write
// fails (here: the file-size limit is reached) it must log, not terminate.
void destroy_journal_past_file_size_limit(const std::string& dir) {
  auto jnl = RunJournal::create(dir);
  jnl->begin_run(small_meta());
  jnl->begin_batch(Phase::kInit, 0, std::vector<std::size_t>{3});
  jnl->append_reveal(ok_reveal(3, 1.0, 2.0));
  jnl->commit_batch(Phase::kInit, 0, 1, {1, 2, 3, 4});
  jnl->record_regions(1, 10, 0xABCDull);  // buffered, not yet written
  const auto size =
      static_cast<rlim_t>(fs::file_size(fs::path(dir) / "000001.open"));
  const rlimit limit{size, size};
  ::setrlimit(RLIMIT_FSIZE, &limit);
  ::signal(SIGXFSZ, SIG_IGN);
  jnl.reset();
  ::_exit(0);
}

TEST(JournalDeathTest, DestructorSurvivesAFailedFinalWrite) {
  const std::string dir = fresh_dir("fsizelimit");
  EXPECT_EXIT(destroy_journal_past_file_size_limit(dir),
              ::testing::ExitedWithCode(0), "");
}

// ---- Tuner integration: journaled runs and bit-identical resume -----------

class JournalTunerTest : public ::testing::Test {
 protected:
  JournalTunerTest()
      : source_(testing::synthetic_benchmark("src", 150, 11, 0.15)),
        target_(testing::synthetic_benchmark("tgt", 200, 12, 0.0)) {}

  tuner::SourceData source_data() {
    return tuner::SourceData::from_benchmark(source_, tuner::kPowerDelay, 100,
                                             5);
  }

  tuner::PPATunerOptions base_options() {
    tuner::PPATunerOptions opt;
    opt.seed = 7;
    opt.max_runs = 40;
    return opt;
  }

  tuner::TuningResult run(tuner::PPATunerOptions opt,
                          tuner::PPATunerDiagnostics* diag = nullptr) {
    tuner::BenchmarkCandidatePool pool(&target_, tuner::kPowerDelay);
    return tuner::run_ppatuner(
        pool, tuner::make_transfer_gp_factory(source_data()), opt, diag);
  }

  flow::BenchmarkSet source_, target_;
};

TEST_F(JournalTunerTest, JournalingDoesNotChangeTheResult) {
  const auto baseline = run(base_options());

  const std::string dir = fresh_dir("parity");
  auto jnl = RunJournal::create(dir);
  auto opt = base_options();
  opt.journal = jnl.get();
  const auto journaled = run(opt);

  EXPECT_EQ(journaled.pareto_indices, baseline.pareto_indices);
  EXPECT_EQ(journaled.tool_runs, baseline.tool_runs);
}

TEST_F(JournalTunerTest, FullReplayReconstructsBitIdenticallyWithZeroRuns) {
  const std::string dir = fresh_dir("fullreplay");
  tuner::PPATunerDiagnostics base_diag;
  tuner::TuningResult baseline;
  {
    auto jnl = RunJournal::create(dir);
    auto opt = base_options();
    opt.journal = jnl.get();
    baseline = run(opt, &base_diag);
  }

  auto jnl = RunJournal::open_resume(dir);
  auto opt = base_options();
  opt.journal = jnl.get();
  tuner::PPATunerDiagnostics diag;
  tuner::BenchmarkCandidatePool pool(&target_, tuner::kPowerDelay);
  const auto resumed = tuner::run_ppatuner(
      pool, tuner::make_transfer_gp_factory(source_data()), opt, &diag);

  // Every reveal was served from the journal: the pool was never touched.
  EXPECT_EQ(pool.runs(), 0u);
  EXPECT_GT(diag.replayed_reveals, 0u);
  EXPECT_EQ(diag.replayed_reveals, baseline.tool_runs);
  // Bit-identical reconstruction.
  EXPECT_EQ(resumed.pareto_indices, baseline.pareto_indices);
  EXPECT_EQ(resumed.tool_runs, baseline.tool_runs);
  EXPECT_EQ(diag.rounds, base_diag.rounds);
  EXPECT_EQ(diag.dropped, base_diag.dropped);
  EXPECT_EQ(diag.classified_pareto, base_diag.classified_pareto);
  EXPECT_EQ(diag.undecided, base_diag.undecided);
  ASSERT_EQ(diag.task_correlations.size(), base_diag.task_correlations.size());
  for (std::size_t i = 0; i < diag.task_correlations.size(); ++i) {
    EXPECT_EQ(diag.task_correlations[i], base_diag.task_correlations[i]);
  }
}

TEST_F(JournalTunerTest, ResumeMismatchedSeedIsRejected) {
  const std::string dir = fresh_dir("wrongseed");
  {
    auto jnl = RunJournal::create(dir);
    auto opt = base_options();
    opt.journal = jnl.get();
    run(opt);
  }
  auto jnl = RunJournal::open_resume(dir);
  auto opt = base_options();
  opt.seed = 8;  // not the journaled run
  opt.journal = jnl.get();
  tuner::BenchmarkCandidatePool pool(&target_, tuner::kPowerDelay);
  EXPECT_THROW(tuner::run_ppatuner(
                   pool, tuner::make_transfer_gp_factory(source_data()), opt),
               JournalMismatchError);
}

TEST_F(JournalTunerTest, ChoppedTailResumesToTheSameResult) {
  const auto baseline = run(base_options());

  const std::string dir = fresh_dir("choppedtail");
  {
    auto jnl = RunJournal::create(dir);
    auto opt = base_options();
    opt.journal = jnl.get();
    run(opt);
  }
  // Chop the last segment mid-record at several offsets: every cut must
  // truncate cleanly and resume to the bitwise-identical result. Snapshot
  // the pristine journal first — resuming reseals/renames segments, so each
  // cut starts from a full directory restore.
  std::map<std::string, std::string> pristine;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream data;
    data << in.rdbuf();
    pristine[e.path().filename().string()] = data.str();
  }
  const std::string& last = pristine.rbegin()->first;  // highest-seq segment
  const std::size_t full = pristine.at(last).size();
  for (const double frac : {0.85, 0.6, 0.35}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& [name, bytes] : pristine) {
      std::ofstream out(fs::path(dir) / name, std::ios::binary);
      const std::size_t n =
          name == last ? static_cast<std::size_t>(full * frac) : bytes.size();
      out.write(bytes.data(), static_cast<std::streamoff>(n));
    }
    auto jnl = RunJournal::open_resume(dir);
    auto opt = base_options();
    opt.journal = jnl.get();
    tuner::PPATunerDiagnostics diag;
    tuner::BenchmarkCandidatePool pool(&target_, tuner::kPowerDelay);
    const auto resumed = tuner::run_ppatuner(
        pool, tuner::make_transfer_gp_factory(source_data()), opt, &diag);
    EXPECT_EQ(resumed.pareto_indices, baseline.pareto_indices)
        << "cut at fraction " << frac;
    EXPECT_EQ(resumed.tool_runs, baseline.tool_runs);
    // Reveals past the cut were re-run live, the rest replayed.
    EXPECT_EQ(diag.replayed_reveals + pool.runs(), baseline.tool_runs);
  }
}

TEST_F(JournalTunerTest, GracefulStopJournalsAndResumesBitIdentically) {
  const auto baseline = run(base_options());

  const std::string dir = fresh_dir("gracefulstop");
  {
    auto jnl = RunJournal::create(dir);
    auto opt = base_options();
    opt.journal = jnl.get();
    std::size_t rounds_seen = 0;
    opt.on_round = [&rounds_seen](const tuner::PPATunerProgress&) {
      ++rounds_seen;
    };
    opt.should_stop = [&rounds_seen] { return rounds_seen >= 2; };
    tuner::PPATunerDiagnostics diag;
    const auto partial = run(opt, &diag);
    EXPECT_TRUE(diag.stopped_early);
    EXPECT_LT(partial.tool_runs, baseline.tool_runs);
  }
  {
    const JournalContents contents = read_journal(dir);
    ASSERT_FALSE(contents.entries.empty());
    EXPECT_EQ(contents.entries.back().kind, JournalEntry::Kind::kShutdown);
    EXPECT_EQ(contents.entries.back().reason, ShutdownReason::kStopRequested);
  }

  auto jnl = RunJournal::open_resume(dir);
  auto opt = base_options();
  opt.journal = jnl.get();
  tuner::PPATunerDiagnostics diag;
  tuner::BenchmarkCandidatePool pool(&target_, tuner::kPowerDelay);
  const auto resumed = tuner::run_ppatuner(
      pool, tuner::make_transfer_gp_factory(source_data()), opt, &diag);
  EXPECT_FALSE(diag.stopped_early);
  EXPECT_GT(diag.replayed_reveals, 0u);
  EXPECT_EQ(resumed.pareto_indices, baseline.pareto_indices);
  EXPECT_EQ(resumed.tool_runs, baseline.tool_runs);
}

TEST(JournalShutdown, FlagRoundTrip) {
  reset_shutdown_flag();
  EXPECT_FALSE(shutdown_requested());
  install_graceful_shutdown_handlers();
  EXPECT_FALSE(shutdown_requested());
  ::raise(SIGTERM);
  EXPECT_TRUE(shutdown_requested());
  reset_shutdown_flag();
  EXPECT_FALSE(shutdown_requested());
  // Restore default dispositions so a later real signal kills the test
  // binary instead of silently setting the flag.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

// The satellite regression for the handler-clobbering bug: registration is
// a fan-out dispatcher now, so EVERY registered run sees the signal — the
// old behavior (last install wins) delivered it to one run only.
TEST(JournalShutdown, SignalFansOutToAllRegisteredStops) {
  reset_shutdown_flag();
  ScopedSignalStop first;
  ScopedSignalStop second;
  EXPECT_FALSE(first.stop_requested());
  EXPECT_FALSE(second.stop_requested());
  ::raise(SIGTERM);
  EXPECT_TRUE(first.stop_requested());
  EXPECT_TRUE(second.stop_requested());
  // The process-wide legacy flag fires too (legacy pollers keep working).
  EXPECT_TRUE(shutdown_requested());
  reset_shutdown_flag();
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

TEST(JournalShutdown, StopSlotsAreIndependentAndRecycled) {
  reset_shutdown_flag();
  {
    ScopedSignalStop a;
    ScopedSignalStop b;
    a.request_stop();  // manual stop targets ONE session, not the process
    EXPECT_TRUE(a.stop_requested());
    EXPECT_FALSE(b.stop_requested());
    EXPECT_FALSE(shutdown_requested());
  }
  // Slots released above are reclaimed fresh: no stale fired state leaks
  // into a new registration that happens to reuse the storage.
  ScopedSignalStop c;
  EXPECT_FALSE(c.stop_requested());
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

// SIGTERM gracefully drains two concurrent in-process tuning runs: both
// loops observe their own stop token, finish their in-flight round, and
// finalize — neither is killed and neither misses the signal.
TEST(JournalShutdown, SigtermDrainsTwoConcurrentRuns) {
  reset_shutdown_flag();
  const auto bench_a = ppat::testing::synthetic_benchmark("drain_a", 150, 31);
  const auto bench_b = ppat::testing::synthetic_benchmark("drain_b", 150, 32);

  std::atomic<int> rounds_seen{0};
  std::atomic<bool> signal_sent{false};
  auto run_one = [&](const flow::BenchmarkSet& bench, std::uint64_t seed,
                     tuner::PPATunerDiagnostics* diag) {
    ScopedSignalStop stop;
    common::ThreadPool workers(1);
    tuner::BenchmarkCandidatePool pool(&bench, tuner::kPowerDelay);
    tuner::PPATunerOptions opt;
    opt.seed = seed;
    opt.max_runs = 140;  // big budget: only the signal can end this quickly
    opt.batch_size = 2;
    opt.thread_pool = &workers;
    opt.should_stop = [&stop] { return stop.stop_requested(); };
    opt.on_round = [&](const tuner::PPATunerProgress&) {
      rounds_seen.fetch_add(1);
      // Both runs spin until the signal has actually been raised, so the
      // stop is guaranteed to arrive mid-run in each of them.
      while (!signal_sent.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    tuner::run_ppatuner(pool, tuner::make_plain_gp_factory(), opt, diag);
  };

  tuner::PPATunerDiagnostics diag_a, diag_b;
  std::thread ta([&] { run_one(bench_a, 41, &diag_a); });
  std::thread tb([&] { run_one(bench_b, 42, &diag_b); });
  while (rounds_seen.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::raise(SIGTERM);  // one process-level signal...
  signal_sent.store(true);
  ta.join();
  tb.join();
  // ...drained BOTH runs.
  EXPECT_TRUE(diag_a.stopped_early);
  EXPECT_TRUE(diag_b.stopped_early);
  reset_shutdown_flag();
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

}  // namespace
}  // namespace ppat::journal
