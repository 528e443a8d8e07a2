#include "journal/journal.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/log.hpp"

namespace ppat::journal {
namespace fs = std::filesystem;

namespace {

// ---- Segment framing ------------------------------------------------------

constexpr char kMagic[8] = {'P', 'P', 'A', 'T', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 4;  // magic, version, seq
/// Smallest encoding of one RegionSnapshotEntry: id and two empty vectors.
constexpr std::size_t kMinSnapshotEntryBytes = 3 * 8;

std::string segment_header(std::uint32_t seq) {
  RecordWriter h;
  h.bytes(kMagic, sizeof(kMagic));
  h.u32(kVersion);
  h.u32(seq);
  return h.take();
}

std::string segment_name(std::size_t seq, bool sealed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu.%s", seq, sealed ? "seg" : "open");
  return buf;
}

// ---- Entry payload encode/decode -----------------------------------------

std::string encode_meta(const RunMeta& m) {
  RecordWriter w;
  w.u64(m.seed);
  w.f64(m.tau);
  w.f64(m.delta_rel);
  w.f64(m.init_fraction);
  w.u64(m.batch_size);
  w.u64(m.min_init);
  w.u64(m.refit_every);
  w.u64(m.max_runs);
  w.u64(m.max_rounds);
  w.u64(m.pool_size);
  w.u64(m.num_objectives);
  w.u64_vec(m.objectives);
  w.u64(m.pool_fingerprint);
  return w.take();
}

RunMeta decode_meta(RecordReader& r) {
  RunMeta m;
  m.seed = r.u64();
  m.tau = r.f64();
  m.delta_rel = r.f64();
  m.init_fraction = r.f64();
  m.batch_size = r.u64();
  m.min_init = r.u64();
  m.refit_every = r.u64();
  m.max_runs = r.u64();
  m.max_rounds = r.u64();
  m.pool_size = r.u64();
  m.num_objectives = r.u64();
  m.objectives = r.u64_vec();
  m.pool_fingerprint = r.u64();
  return m;
}

std::string encode_reveal(const RevealRecord& rec) {
  RecordWriter w;
  w.u64(rec.id);
  w.u8(static_cast<std::uint8_t>(rec.status));
  w.u32(rec.attempts);
  w.f64(rec.elapsed_ms);
  w.f64_vec(rec.objectives);
  w.str(rec.error);
  return w.take();
}

RevealRecord decode_reveal(RecordReader& r) {
  RevealRecord rec;
  rec.id = r.u64();
  rec.status = static_cast<RevealStatus>(r.u8());
  rec.attempts = r.u32();
  rec.elapsed_ms = r.f64();
  rec.objectives = r.f64_vec();
  rec.error = r.str();
  return rec;
}

JournalEntry decode_entry(std::uint8_t type, std::string_view payload) {
  RecordReader r(payload.data(), payload.size());
  JournalEntry e;
  e.kind = static_cast<JournalEntry::Kind>(type);
  switch (e.kind) {
    case JournalEntry::Kind::kRunHeader:
      e.meta = decode_meta(r);
      break;
    case JournalEntry::Kind::kSelection:
      e.phase = static_cast<Phase>(r.u8());
      e.round = r.u64();
      e.ids = r.u64_vec();
      break;
    case JournalEntry::Kind::kReveal:
      e.reveal = decode_reveal(r);
      break;
    case JournalEntry::Kind::kBatchCommit:
      e.phase = static_cast<Phase>(r.u8());
      e.round = r.u64();
      e.runs_after = r.u64();
      for (auto& w : e.rng_state) w = r.u64();
      break;
    case JournalEntry::Kind::kRegions: {
      e.round = r.u64();
      e.alive_count = r.u64();
      e.region_digest = r.u64();
      const std::uint8_t has_snapshot = r.u8();
      if (has_snapshot != 0) {
        e.snapshot.resize(r.count(kMinSnapshotEntryBytes));
        for (auto& entry : e.snapshot) {
          entry.id = r.u64();
          entry.lo = r.f64_vec();
          entry.hi = r.f64_vec();
        }
      }
      break;
    }
    case JournalEntry::Kind::kShutdown:
      e.reason = static_cast<ShutdownReason>(r.u8());
      e.round = r.u64();
      break;
    default:
      throw JournalError("journal record has unknown type " +
                         std::to_string(int(type)));
  }
  if (!r.done()) {
    throw JournalError("journal record has trailing payload bytes");
  }
  return e;
}

// ---- Directory scan + parse ----------------------------------------------

struct SegmentFile {
  std::size_t seq = 0;
  fs::path path;
  bool sealed = false;
  /// Bytes of this segment covered by valid records (header included);
  /// equal to the file size for clean segments, the truncation point for a
  /// torn one, and 0 for segments discarded after a corruption.
  std::size_t valid_bytes = 0;
};

std::vector<SegmentFile> scan_segments(const std::string& dir) {
  std::vector<SegmentFile> files;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    const auto dot = name.find('.');
    if (dot == std::string::npos || dot == 0) continue;
    const std::string ext = name.substr(dot + 1);
    const bool sealed = ext == "seg";
    if (!sealed && ext != "open") continue;
    const std::string stem = name.substr(0, dot);
    if (stem.find_first_not_of("0123456789") != std::string::npos) continue;
    std::size_t seq = 0;
    try {
      seq = std::stoul(stem);
    } catch (const std::exception&) {
      // An all-digit stem too large for size_t is still a structural
      // problem, and those throw JournalError — never std::out_of_range.
      throw JournalError("journal segment sequence out of range: " + name);
    }
    files.push_back({seq, de.path(), sealed, 0});
  }
  if (ec) {
    throw JournalError("cannot read journal directory " + dir + ": " +
                       ec.message());
  }
  std::sort(files.begin(), files.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 1; i < files.size(); ++i) {
    if (files[i].seq == files[i - 1].seq) {
      throw JournalError("journal has duplicate segment sequence " +
                         std::to_string(files[i].seq));
    }
  }
  return files;
}

struct ParseResult {
  JournalContents contents;
  std::vector<SegmentFile> files;  ///< with valid_bytes filled in
};

ParseResult parse_journal(const std::string& dir) {
  ParseResult result;
  result.files = scan_segments(dir);
  bool corrupt = false;
  for (std::size_t fi = 0; fi < result.files.size(); ++fi) {
    SegmentFile& seg = result.files[fi];
    if (corrupt) continue;  // discarded: everything after the torn point
    const std::optional<std::string> data =
        FramedLog::read_file(seg.path.string());
    if (!data) {
      throw JournalError("cannot open journal segment " + seg.path.string());
    }
    auto truncate_here = [&](std::size_t offset, const std::string& why) {
      corrupt = true;
      result.contents.truncated = true;
      result.contents.truncation_note = seg.path.filename().string() + " @" +
                                        std::to_string(offset) + ": " + why;
      seg.valid_bytes = offset;
    };
    if (data->size() < kSegmentHeaderBytes ||
        std::memcmp(data->data(), kMagic, sizeof(kMagic)) != 0) {
      if (fi == 0) {
        throw JournalError("not a PPATuner journal: " + seg.path.string());
      }
      truncate_here(0, "bad segment header");
      continue;
    }
    {
      RecordReader hr(data->data() + sizeof(kMagic), 8);
      const std::uint32_t version = hr.u32();
      const std::uint32_t seq = hr.u32();
      if (version != kVersion) {
        throw JournalError("unsupported journal version " +
                           std::to_string(version));
      }
      if (seq != seg.seq) {
        if (fi == 0) {
          throw JournalError("journal segment sequence mismatch in " +
                             seg.path.string());
        }
        truncate_here(0, "segment sequence mismatch");
        continue;
      }
    }
    result.contents.segments += 1;
    const FramedLog::Scan scan = FramedLog::scan(
        *data, kSegmentHeaderBytes,
        [&](std::uint8_t kind, std::string_view payload) {
          result.contents.entries.push_back(decode_entry(kind, payload));
        });
    if (scan.torn()) {
      truncate_here(scan.valid_bytes, scan.note);
    } else {
      seg.valid_bytes = scan.valid_bytes;
    }
  }
  return result;
}

// ---- Graceful shutdown dispatcher ----------------------------------------
//
// One process-level handler fans a SIGINT/SIGTERM out to every registered
// run. The handler may only touch lock-free atomics, so registrations live
// in a fixed static slot array: claiming a slot is a CAS on `active`,
// firing is a relaxed store to `fired`, and the handler never follows a
// pointer or takes a lock. Slots are recycled after release, so the table
// never grows and nothing is ever freed under the handler's feet.

volatile std::sig_atomic_t g_shutdown_flag = 0;

constexpr std::size_t kStopSlots = 256;

struct StopSlot {
  std::atomic<bool> active{false};
  std::atomic<bool> fired{false};
};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires lock-free atomic<bool>");

StopSlot g_stop_slots[kStopSlots];

extern "C" void ppat_journal_signal_handler(int) {
  g_shutdown_flag = 1;
  for (std::size_t i = 0; i < kStopSlots; ++i) {
    if (g_stop_slots[i].active.load(std::memory_order_relaxed)) {
      g_stop_slots[i].fired.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace

const char* reveal_status_name(RevealStatus status) {
  switch (status) {
    case RevealStatus::kOk:
      return "ok";
    case RevealStatus::kFailed:
      return "failed";
    case RevealStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

std::uint64_t hash_doubles(std::uint64_t h, std::span<const double> values) {
  for (double v : values) h = mix_hash(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

JournalContents read_journal(const std::string& dir) {
  if (!fs::exists(dir)) {
    throw JournalError("journal directory does not exist: " + dir);
  }
  ParseResult parsed = parse_journal(dir);
  if (parsed.files.empty()) {
    throw JournalError("no journal segments in " + dir);
  }
  return std::move(parsed.contents);
}

// ---- RunJournal -----------------------------------------------------------

RunJournal::RunJournal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)), options_(options) {}

RunJournal::~RunJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!log_.is_open()) return;
  try {
    log_.flush();
    if (options_.fsync_each_commit) log_.sync();
  } catch (const JournalError& e) {
    // A destructor must not throw; the records still buffered (at most the
    // last round's region record) are lost, everything before is on disk.
    PPAT_WARN << "journal " << dir_ << ": final flush failed: " << e.what();
  }
}

std::unique_ptr<RunJournal> RunJournal::create(const std::string& dir,
                                               JournalOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw JournalError("cannot create journal directory " + dir + ": " +
                       ec.message());
  }
  if (!scan_segments(dir).empty()) {
    throw JournalError("journal directory already contains a journal: " + dir +
                       " (use open_resume to continue it)");
  }
  std::unique_ptr<RunJournal> j(new RunJournal(dir, options));
  std::lock_guard<std::mutex> lock(j->mutex_);
  j->open_segment_locked(1);
  return j;
}

std::unique_ptr<RunJournal> RunJournal::open_resume(const std::string& dir,
                                                    JournalOptions options) {
  std::unique_ptr<RunJournal> j(new RunJournal(dir, options));
  j->load_for_resume();
  return j;
}

void RunJournal::load_for_resume() {
  if (!fs::exists(dir_)) {
    throw JournalError("journal directory does not exist: " + dir_);
  }
  ParseResult parsed = parse_journal(dir_);
  if (parsed.files.empty()) {
    throw JournalError("no journal segments in " + dir_);
  }
  if (parsed.contents.truncated) {
    PPAT_WARN << "journal " << dir_ << " has a torn/corrupt tail ("
              << parsed.contents.truncation_note
              << "); truncating to the last valid record ("
              << parsed.contents.entries.size() << " entries survive)";
  }
  // Physically drop everything past the last valid record so a later resume
  // (or an external reader) never re-parses the corrupt tail.
  std::size_t last_seq = 0;
  for (const SegmentFile& seg : parsed.files) {
    if (seg.valid_bytes == 0 ||
        (seg.valid_bytes <= kSegmentHeaderBytes && parsed.contents.truncated)) {
      std::error_code ec;
      fs::remove(seg.path, ec);
      continue;
    }
    FramedLog().open_append(seg.path.string(), seg.valid_bytes);  // cut tail
    if (!seg.sealed) {
      // Seal the surviving tail: its content is now known-valid, and the
      // resumed run appends into a fresh segment.
      fs::path sealed = seg.path.parent_path() / segment_name(seg.seq, true);
      std::error_code ec;
      fs::rename(seg.path, sealed, ec);
      if (ec) {
        throw JournalError("cannot seal journal segment " + seg.path.string() +
                           ": " + ec.message());
      }
      FramedLog::sync_directory(dir_);
    }
    last_seq = std::max(last_seq, seg.seq);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(parsed.contents.entries);
  cursor_ = 0;
  open_segment_locked(last_seq + 1);
}

void RunJournal::open_segment_locked(std::size_t seq) {
  segment_seq_ = seq;
  log_.create((fs::path(dir_) / segment_name(seq, false)).string(),
              segment_header(static_cast<std::uint32_t>(seq)));
}

void RunJournal::rotate_locked() {
  log_.flush();
  log_.sync();
  log_.close();
  const fs::path open_path = fs::path(dir_) / segment_name(segment_seq_, false);
  const fs::path sealed_path =
      fs::path(dir_) / segment_name(segment_seq_, true);
  std::error_code ec;
  fs::rename(open_path, sealed_path, ec);
  if (ec) {
    throw JournalError("cannot seal journal segment " + open_path.string() +
                       ": " + ec.message());
  }
  FramedLog::sync_directory(dir_);
  open_segment_locked(segment_seq_ + 1);
}

void RunJournal::append_entry_locked(JournalEntry::Kind kind,
                                     std::string_view payload) {
  log_.append(static_cast<std::uint8_t>(kind), payload);
  if (log_.size() >= options_.segment_bytes) {
    rotate_locked();
  }
}

const JournalEntry* RunJournal::peek() const {
  return cursor_ < entries_.size() ? &entries_[cursor_] : nullptr;
}

void RunJournal::advance() {
  ++cursor_;
  if (cursor_ >= entries_.size()) {
    // Replay finished: free the recorded entries eagerly (a long run's
    // region snapshots can be large).
    entries_.clear();
    entries_.shrink_to_fit();
    cursor_ = 0;
  }
}

bool RunJournal::replaying() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cursor_ < entries_.size();
}

double RunJournal::write_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_seconds_;
}

namespace {
/// Accumulates the enclosing scope's wall time into `acc`. Constructed after
/// the journal mutex is taken, so the addition is race-free.
class ScopedWriteTimer {
 public:
  explicit ScopedWriteTimer(double& acc)
      : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedWriteTimer() {
    acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  }

 private:
  double& acc_;
  std::chrono::steady_clock::time_point t0_;
};
}  // namespace

void RunJournal::begin_run(const RunMeta& meta) {
  std::lock_guard<std::mutex> lock(mutex_);
  const JournalEntry* e = peek();
  if (e != nullptr) {
    if (e->kind != JournalEntry::Kind::kRunHeader) {
      throw JournalMismatchError("journal does not start with a run header");
    }
    if (!(e->meta == meta)) {
      throw JournalMismatchError(
          "journal was recorded under a different run configuration "
          "(seed/options/objectives/pool mismatch); refusing to resume");
    }
    advance();
    return;
  }
  ScopedWriteTimer timer(write_seconds_);
  append_entry_locked(JournalEntry::Kind::kRunHeader, encode_meta(meta));
  log_.flush();
}

RunJournal::BatchReplay RunJournal::begin_batch(
    Phase phase, std::uint64_t round, std::span<const std::size_t> ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (batch_open_) {
    throw JournalError("begin_batch while a batch is already open");
  }
  batch_open_ = true;
  batch_phase_ = phase;
  batch_round_ = round;
  batch_recorded_ids_.clear();
  pending_commit_.reset();
  BatchReplay replay;

  const JournalEntry* e = peek();
  while (e != nullptr && e->kind == JournalEntry::Kind::kShutdown) {
    advance();
    e = peek();
  }
  if (e != nullptr) {
    if (e->kind != JournalEntry::Kind::kSelection || e->phase != phase ||
        e->round != round || e->ids.size() != ids.size() ||
        !std::equal(ids.begin(), ids.end(), e->ids.begin())) {
      throw JournalMismatchError(
          "replayed selection diverged from the journal at round " +
          std::to_string(round) + "; refusing to resume");
    }
    advance();
    // Consume this batch's recorded outcomes (possibly a strict subset when
    // the run died mid-batch) and, if present, its commit marker.
    while ((e = peek()) != nullptr &&
           e->kind == JournalEntry::Kind::kReveal) {
      replay.outcomes[e->reveal.id] = e->reveal;
      batch_recorded_ids_.insert(e->reveal.id);
      advance();
    }
    if (e != nullptr && e->kind == JournalEntry::Kind::kBatchCommit) {
      if (e->phase != phase || e->round != round) {
        throw JournalMismatchError(
            "journal batch commit does not match its selection");
      }
      pending_commit_ = *e;
      replay.committed = true;
      advance();
    }
    replayed_reveals_ += replay.outcomes.size();
    return replay;
  }
  // Recording: append the selection and write it through immediately —
  // resume needs the selection on disk before any of its reveals, or a
  // crash mid-batch would orphan the per-completion records that follow.
  ScopedWriteTimer timer(write_seconds_);
  RecordWriter w;
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(round);
  w.count(ids.size());
  for (std::size_t id : ids) w.u64(id);
  append_entry_locked(JournalEntry::Kind::kSelection, w.buf());
  log_.flush();
  return replay;
}

void RunJournal::append_reveal(const RevealRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  ScopedWriteTimer timer(write_seconds_);
  if (!batch_open_) return;
  if (!batch_recorded_ids_.insert(record.id).second) return;  // already logged
  append_entry_locked(JournalEntry::Kind::kReveal, encode_reveal(record));
  // Write through immediately: the record must reach the fd (page cache is
  // enough to survive SIGKILL/OOM-kill) the moment the run completes, not
  // at the batch commit — each reveal is hours of tool time.
  log_.flush();
}

void RunJournal::commit_batch(Phase phase, std::uint64_t round,
                              std::uint64_t runs_after,
                              const std::array<std::uint64_t, 4>& rng_state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!batch_open_ || batch_phase_ != phase || batch_round_ != round) {
    throw JournalError("commit_batch does not match the open batch");
  }
  batch_open_ = false;
  if (pending_commit_.has_value()) {
    // Replay verification: the resumed run must land on exactly the
    // recorded budget and RNG stream, or it is not bit-identical.
    if (pending_commit_->runs_after != runs_after ||
        pending_commit_->rng_state != rng_state) {
      throw JournalMismatchError(
          "replayed run diverged from the journal (runs/RNG state mismatch "
          "after batch at round " + std::to_string(round) + ")");
    }
    pending_commit_.reset();
    return;
  }
  ScopedWriteTimer timer(write_seconds_);
  RecordWriter w;
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(round);
  w.u64(runs_after);
  for (std::uint64_t word : rng_state) w.u64(word);
  append_entry_locked(JournalEntry::Kind::kBatchCommit, w.buf());
  log_.flush();
  if (options_.fsync_each_commit) log_.sync();
}

void RunJournal::record_regions(
    std::uint64_t round, std::uint64_t alive_count, std::uint64_t digest,
    const std::function<std::vector<RegionSnapshotEntry>()>& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  const JournalEntry* e = peek();
  while (e != nullptr && e->kind == JournalEntry::Kind::kShutdown) {
    advance();
    e = peek();
  }
  if (e != nullptr) {
    if (e->kind != JournalEntry::Kind::kRegions || e->round != round) {
      throw JournalMismatchError(
          "journal is missing the uncertainty-region record for round " +
          std::to_string(round));
    }
    if (e->alive_count != alive_count || e->region_digest != digest) {
      throw JournalMismatchError(
          "replayed uncertainty regions diverged from the journal at round " +
          std::to_string(round) + "; refusing to resume");
    }
    advance();
    return;
  }
  ScopedWriteTimer timer(write_seconds_);
  const bool snapshot_due = options_.region_snapshot_every > 0 &&
                            round % options_.region_snapshot_every == 0 &&
                            snapshot;
  RecordWriter w;
  w.u64(round);
  w.u64(alive_count);
  w.u64(digest);
  w.u8(snapshot_due ? 1 : 0);
  if (snapshot_due) {
    const std::vector<RegionSnapshotEntry> entries = snapshot();
    w.count(entries.size());
    for (const RegionSnapshotEntry& entry : entries) {
      w.u64(entry.id);
      w.f64_vec(entry.lo);
      w.f64_vec(entry.hi);
    }
    rounds_snapshotted_ += 1;
  }
  append_entry_locked(JournalEntry::Kind::kRegions, w.buf());
}

void RunJournal::record_shutdown(ShutdownReason reason, std::uint64_t rounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const JournalEntry* e = peek();
  if (e != nullptr && e->kind == JournalEntry::Kind::kShutdown) {
    advance();
    return;
  }
  if (cursor_ < entries_.size()) return;  // still replaying: nothing to write
  ScopedWriteTimer timer(write_seconds_);
  RecordWriter w;
  w.u8(static_cast<std::uint8_t>(reason));
  w.u64(rounds);
  append_entry_locked(JournalEntry::Kind::kShutdown, w.buf());
  log_.flush();
  if (options_.fsync_each_commit) log_.sync();
}

void RunJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  ScopedWriteTimer timer(write_seconds_);
  log_.flush();
  if (options_.fsync_each_commit && log_.is_open()) log_.sync();
}

// ---- Graceful shutdown ----------------------------------------------------

void install_graceful_shutdown_handlers() {
  std::signal(SIGINT, ppat_journal_signal_handler);
  std::signal(SIGTERM, ppat_journal_signal_handler);
}

bool shutdown_requested() { return g_shutdown_flag != 0; }

void reset_shutdown_flag() { g_shutdown_flag = 0; }

ScopedSignalStop::ScopedSignalStop() {
  install_graceful_shutdown_handlers();
  for (std::size_t i = 0; i < kStopSlots; ++i) {
    bool expected = false;
    if (g_stop_slots[i].active.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      g_stop_slots[i].fired.store(false, std::memory_order_relaxed);
      slot_ = static_cast<int>(i);
      return;
    }
  }
  // Slot table exhausted (more than kStopSlots concurrent runs): fall back
  // to the process-wide flag, which the handler always sets. Such a token
  // over-reports stops (any signal stops it) but never misses one.
  slot_ = -1;
}

ScopedSignalStop::~ScopedSignalStop() {
  if (slot_ >= 0) {
    g_stop_slots[static_cast<std::size_t>(slot_)].active.store(
        false, std::memory_order_release);
  }
}

bool ScopedSignalStop::stop_requested() const {
  if (slot_ < 0) return g_shutdown_flag != 0;
  return g_stop_slots[static_cast<std::size_t>(slot_)].fired.load(
      std::memory_order_relaxed);
}

void ScopedSignalStop::request_stop() {
  if (slot_ >= 0) {
    g_stop_slots[static_cast<std::size_t>(slot_)].fired.store(
        true, std::memory_order_relaxed);
  } else {
    g_shutdown_flag = 1;
  }
}

}  // namespace ppat::journal
