#include "journal/reveal_ledger.hpp"

#include <cstring>

#include "common/log.hpp"

namespace ppat::journal {
namespace {

constexpr char kLedgerMagic[8] = {'P', 'P', 'A', 'T', 'L', 'G', 'R', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kLedgerMagic);
constexpr std::uint8_t kKindReveal = 1;

std::string encode_record(const LedgerRecord& rec) {
  RecordWriter w;
  w.u64(rec.digest);
  w.u32(rec.attempt);
  w.u8(static_cast<std::uint8_t>(rec.status));
  w.u32(rec.attempts);
  w.f64(rec.elapsed_ms);
  w.f64_vec(rec.values);
  w.str(rec.error);
  return w.take();
}

LedgerRecord decode_record(std::string_view payload) {
  RecordReader r(payload.data(), payload.size());
  LedgerRecord rec;
  rec.digest = r.u64();
  rec.attempt = r.u32();
  rec.status = static_cast<RevealStatus>(r.u8());
  rec.attempts = r.u32();
  rec.elapsed_ms = r.f64();
  rec.values = r.f64_vec();
  rec.error = r.str();
  return rec;
}

}  // namespace

std::unique_ptr<RevealLedger> RevealLedger::open(const std::string& path) {
  auto ledger = std::unique_ptr<RevealLedger>(new RevealLedger());
  ledger->path_ = path;

  const std::string data = FramedLog::read_file(path).value_or("");
  if (data.empty()) {
    // Fresh (or zero-byte after a crash between open and header write):
    // start over with a header.
    ledger->log_.create(path,
                        std::string_view(kLedgerMagic, sizeof(kLedgerMagic)));
    ledger->log_.flush();
    return ledger;
  }

  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kLedgerMagic, sizeof(kLedgerMagic)) != 0) {
    throw JournalError("not a reveal ledger (bad magic): " + path);
  }
  const FramedLog::Scan scan = FramedLog::scan(
      data, kHeaderBytes, [&](std::uint8_t kind, std::string_view payload) {
        if (kind != kKindReveal) return;
        LedgerRecord rec = decode_record(payload);
        ledger->by_digest_[rec.digest] = std::move(rec);
        ++ledger->loaded_;
      });
  ledger->truncated_ = scan.torn();
  if (ledger->truncated_) {
    PPAT_WARN << "reveal ledger " << path << ": torn tail (" << scan.note
              << ") truncated at byte " << scan.valid_bytes << " ("
              << (data.size() - scan.valid_bytes) << " bytes dropped)";
  }
  ledger->log_.open_append(path, scan.valid_bytes);
  return ledger;
}

const LedgerRecord* RevealLedger::find(std::uint64_t digest) const {
  const auto it = by_digest_.find(digest);
  return it == by_digest_.end() ? nullptr : &it->second;
}

void RevealLedger::append(const LedgerRecord& record) {
  log_.append(kKindReveal, encode_record(record));
  log_.flush();
  by_digest_[record.digest] = record;
}

void RevealLedger::sync() { log_.sync(); }

}  // namespace ppat::journal
