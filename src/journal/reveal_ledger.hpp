// Exactly-once reveal ledger for the distributed coordinator.
//
// The coordinator's crash contract is stronger than "resume bit-identically":
// it must never DOUBLE-SPEND a tool run. Every finalized evaluation outcome
// is appended here — keyed by the candidate's content digest — the moment it
// exists, via a plain write() to the file (page-cache durability: a
// SIGKILLed coordinator loses only runs still in flight, never completed
// ones). On resume the coordinator serves any candidate whose digest is
// already in the ledger straight from the recorded outcome instead of
// re-dispatching it, so a kill-and-restart cycle costs zero extra tool runs
// for completed work and at most one retry for work that was in flight.
//
// On-disk format: a single append-only file, 8-byte magic "PPATLGR1", then
// journal::FramedLog frames (framed_log.hpp; the same log under RunJournal
// segments):
//
//   u32 payload_len | u32 crc | u8 kind | payload
//
// with the CRC over kind + payload and the payload in the shared record
// codec (u64 lengths). A torn or corrupt tail is detected and physically
// truncated at the last valid record on open — the same never-trust-the-tail
// rule as RunJournal, from the same scanner. Duplicate digests load
// last-wins (append is idempotent per outcome; re-appending after replay is
// harmless). The ledger stays its own file rather than a record kind in the
// run journal: it is keyed by config digest and opened by coordinators that
// have no RunJournal at all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "journal/journal.hpp"

namespace ppat::journal {

/// One durably recorded evaluation outcome. The journal library must not
/// depend on flow, so this mirrors flow::RunRecord structurally: `values`
/// carries the QoR metric vector (area, power, delay) when ok.
struct LedgerRecord {
  std::uint64_t digest = 0;   ///< content digest of the candidate config
  std::uint32_t attempt = 0;  ///< attempt number that produced the outcome
  RevealStatus status = RevealStatus::kFailed;
  std::uint32_t attempts = 0;  ///< total attempts folded into the outcome
  double elapsed_ms = 0.0;
  std::vector<double> values;  ///< QoR metrics, valid iff status == kOk
  std::string error;           ///< failure reason iff status != kOk

  bool ok() const { return status == RevealStatus::kOk; }
};

/// Append-side + lookup handle on one coordinator's reveal ledger.
/// Not thread-safe — the coordinator is single-threaded by design.
class RevealLedger {
 public:
  /// Opens `path`, creating it (with header) when absent. An existing file
  /// is scanned, its torn/corrupt tail truncated, and its records indexed.
  /// Throws JournalError on bad magic or I/O failure.
  static std::unique_ptr<RevealLedger> open(const std::string& path);

  RevealLedger(const RevealLedger&) = delete;
  RevealLedger& operator=(const RevealLedger&) = delete;

  /// Last recorded outcome for this candidate digest, or nullptr.
  const LedgerRecord* find(std::uint64_t digest) const;

  /// Appends one outcome and writes it through immediately (no buffering;
  /// survives SIGKILL the moment the call returns). Also updates the
  /// in-memory index, last-wins per digest.
  void append(const LedgerRecord& record);

  /// Forces the file contents to stable storage (kernel crash / power-loss
  /// durability; SIGKILL durability needs only the write-through above).
  void sync();

  /// Distinct digests currently indexed.
  std::size_t size() const { return by_digest_.size(); }
  /// Records read back when the ledger was opened (before any append).
  std::size_t loaded() const { return loaded_; }
  /// True when open() found and truncated a torn/corrupt tail.
  bool truncated() const { return truncated_; }
  const std::string& path() const { return path_; }

 private:
  RevealLedger() = default;

  std::string path_;
  FramedLog log_;
  std::unordered_map<std::uint64_t, LedgerRecord> by_digest_;
  std::size_t loaded_ = 0;
  bool truncated_ = false;
};

}  // namespace ppat::journal
