#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"
#include "dist/oracles.hpp"
#include "journal/reveal_ledger.hpp"
#include "server/wire.hpp"

namespace ppat::dist {

namespace wire = server::wire;

namespace {

void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void send_error(int fd, const std::string& message) {
  try {
    wire::Writer w;
    w.str(message);
    wire::write_frame(fd, wire::MsgType::kError, w.take());
  } catch (const wire::WireError&) {
    // The peer is already gone; the close below is all that's left.
  }
}

}  // namespace

/// Per-batch bookkeeping, alive only inside evaluate_batch.
struct DistributedEvalService::BatchState {
  const std::vector<flow::Config>* configs = nullptr;
  const RunObserver* observer = nullptr;
  /// Open records carry the attempts consumed so far; the lifecycle
  /// closes each one exactly once.
  std::vector<flow::RunRecord> records;
  std::vector<std::uint64_t> digests;
  /// First-dispatch time per configuration, batch submission until then
  /// (elapsed_ms baseline).
  std::vector<clock::time_point> run_t0;
  std::vector<bool> done;
  /// Indices awaiting dispatch, FIFO; retries requeue at the FRONT so a
  /// recovering configuration does not go to the back of the line.
  std::deque<std::size_t> pending;
  struct Delayed {
    clock::time_point ready;
    std::size_t index;
  };
  std::vector<Delayed> delayed;  ///< retries waiting out their backoff
  std::size_t remaining = 0;
  clock::time_point batch_t0;
};

DistributedEvalService::DistributedEvalService(flow::ParameterSpace space,
                                               DistributedOptions options)
    : space_(std::move(space)),
      options_(std::move(options)),
      lifecycle_(options_) {
  if (options_.socket_path.empty()) {
    throw std::invalid_argument(
        "DistributedEvalService: socket_path is required");
  }
  if (options_.poll_interval.count() <= 0) {
    options_.poll_interval = std::chrono::milliseconds(20);
  }

  listen_fd_ = wire::listen_unix(options_.socket_path, 32);
  // Non-blocking accept: the poll loop drains every queued connection
  // without ever parking on the listen socket.
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);

  if (!options_.ledger_path.empty()) {
    ledger_ = journal::RevealLedger::open(options_.ledger_path);
  }
  last_worker_seen_ = clock::now();
}

DistributedEvalService::~DistributedEvalService() {
  for (Worker& w : workers_) {
    if (w.fd >= 0) ::close(w.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
  for (pid_t pid : spawned_) {
    ::kill(pid, SIGTERM);
  }
  for (pid_t pid : spawned_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

void DistributedEvalService::spawn_local_worker(
    const std::string& worker_binary, std::vector<std::string> extra_args) {
  std::vector<std::string> args;
  args.push_back(worker_binary);
  args.push_back("--socket");
  args.push_back(options_.socket_path);
  args.push_back("--epoch");
  args.push_back(std::to_string(options_.session_epoch));
  for (std::string& a : extra_args) args.push_back(std::move(a));

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // Exec failure: exit hard so the parent sees a dead worker, not a
    // second coordinator.
    std::fprintf(stderr, "execv %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  spawned_.push_back(pid);
}

bool DistributedEvalService::wait_for_workers(
    std::size_t n, std::chrono::milliseconds timeout) {
  const auto until = clock::now() + timeout;
  while (worker_count() < n) {
    const auto now = clock::now();
    if (now >= until) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now);
    poll_once(std::min(left, options_.poll_interval), nullptr);
  }
  return true;
}

void DistributedEvalService::accept_pending(BatchState* batch) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN via the poll gate; anything else also just waits
    }
    set_recv_timeout(fd, options_.handshake_timeout);
    try {
      const auto hello = wire::read_frame(fd);
      if (!hello.has_value() ||
          hello->type != wire::MsgType::kWorkerHello) {
        send_error(fd, "expected WorkerHello");
        ::close(fd);
        ++stats_.workers_rejected;
        continue;
      }
      wire::Reader r(hello->payload);
      const std::uint32_t proto = r.u32();
      const std::uint64_t epoch = r.u64();
      const std::string oracle_name = r.str();
      const std::uint64_t dim = r.u64();
      if (proto != wire::kProtocolVersion) {
        send_error(fd, "protocol version mismatch");
        ::close(fd);
        ++stats_.workers_rejected;
        continue;
      }
      if (epoch != options_.session_epoch) {
        send_error(fd, "stale session epoch");
        ::close(fd);
        ++stats_.workers_rejected;
        continue;
      }
      if (dim != space_.size()) {
        send_error(fd, "parameter space dimension mismatch");
        ::close(fd);
        ++stats_.workers_rejected;
        continue;
      }
      wire::Writer ack;
      ack.u64(options_.session_epoch);
      wire::write_frame(fd, wire::MsgType::kWorkerHelloAck, ack.take());
      PPAT_INFO << "coordinator: worker connected (oracle " << oracle_name
                << ", dim " << dim << ")";
    } catch (const wire::WireError& e) {
      PPAT_WARN << "coordinator: handshake failed: " << e.what();
      ::close(fd);
      ++stats_.workers_rejected;
      continue;
    }
    Worker w;
    w.fd = fd;
    workers_.push_back(std::move(w));
    ++stats_.workers_connected;
    last_worker_seen_ = clock::now();
    if (batch != nullptr) dispatch_ready(*batch);
  }
}

DistributedStats DistributedEvalService::stats() const {
  DistributedStats stats = stats_;
  static_cast<flow::EvalServiceStats&>(stats) = lifecycle_.stats();
  return stats;
}

void DistributedEvalService::finalize(BatchState& batch, std::size_t idx) {
  flow::RunRecord& rec = batch.records[idx];
  rec.elapsed_ms = std::chrono::duration<double, std::milli>(
                       clock::now() - batch.run_t0[idx])
                       .count();
  batch.done[idx] = true;
  --batch.remaining;
  if (ledger_ != nullptr) {
    journal::LedgerRecord lrec;
    lrec.digest = batch.digests[idx];
    lrec.attempt = static_cast<std::uint32_t>(rec.attempts);
    lrec.status = rec.status;
    lrec.attempts = static_cast<std::uint32_t>(rec.attempts);
    lrec.elapsed_ms = rec.elapsed_ms;
    if (rec.ok()) {
      lrec.values = {rec.qor.area_um2, rec.qor.power_mw, rec.qor.delay_ns};
    }
    lrec.error = rec.error;
    // Durability order matters: the ledger write precedes the observer, so
    // any outcome an observer (journal, tuner) ever saw is guaranteed to be
    // deduplicated on resume.
    ledger_->append(lrec);
  }
  if (batch.observer != nullptr && *batch.observer) {
    (*batch.observer)(idx, rec);
  }
}

void DistributedEvalService::fail_attempt(BatchState& batch, std::size_t idx,
                                          std::string error) {
  flow::RunRecord& rec = batch.records[idx];
  if (lifecycle_.fail_attempt(rec, std::move(error))) {
    // dispatch_ready re-queues it at the front once the backoff expires.
    batch.delayed.push_back(
        {clock::now() + lifecycle_.backoff(rec.attempts), idx});
  } else {
    finalize(batch, idx);
  }
}

void DistributedEvalService::close_queued(
    BatchState& batch, const std::function<void(flow::RunRecord&)>& close) {
  auto close_one = [&](std::size_t idx) {
    close(batch.records[idx]);
    finalize(batch, idx);
  };
  for (std::size_t idx : batch.pending) close_one(idx);
  for (const auto& d : batch.delayed) close_one(d.index);
  batch.pending.clear();
  batch.delayed.clear();
}

void DistributedEvalService::dispatch_ready(BatchState& batch) {
  const auto now = clock::now();
  // Promote retries whose backoff expired.
  for (std::size_t i = 0; i < batch.delayed.size();) {
    if (batch.delayed[i].ready <= now) {
      batch.pending.push_front(batch.delayed[i].index);
      batch.delayed[i] = batch.delayed.back();
      batch.delayed.pop_back();
    } else {
      ++i;
    }
  }

  // Deadline at dispatch: every queued run, retries still backing off
  // included, is past it.
  if (lifecycle_.past_deadline(batch.batch_t0, now)) {
    close_queued(batch, [&](flow::RunRecord& rec) { lifecycle_.expire(rec); });
    return;
  }

  while (!batch.pending.empty()) {
    Worker* idle = nullptr;
    for (Worker& w : workers_) {
      if (!w.busy) {
        idle = &w;
        break;
      }
    }
    if (idle == nullptr) break;

    flow::LicenseBroker::Lease lease;
    if (options_.license_broker != nullptr) {
      lease = options_.license_broker->try_acquire(options_.session_tag);
      if (!lease.valid()) break;  // re-poll; a waiter or exhaustion wins
    }

    const std::size_t idx = batch.pending.front();
    batch.pending.pop_front();
    std::size_t& attempts = batch.records[idx].attempts;
    if (++attempts == 1) batch.run_t0[idx] = clock::now();
    const flow::Config& config = (*batch.configs)[idx];
    wire::Writer req;
    req.u64(idx);
    req.u32(static_cast<std::uint32_t>(attempts));
    req.u64(config.size());
    for (double v : config) req.f64(v);
    try {
      wire::write_frame(idle->fd, wire::MsgType::kEvalRequest, req.take());
    } catch (const wire::WireError&) {
      // The worker vanished between polls; this dispatch never reached a
      // tool, so it does not count as an attempt.
      --attempts;
      batch.pending.push_front(idx);
      const auto widx = static_cast<std::size_t>(idle - workers_.data());
      drop_worker(widx, &batch, "write failed");
      continue;
    }
    idle->busy = true;
    idle->job_index = idx;
    idle->dispatch_t0 = clock::now();
    idle->lease = std::move(lease);
  }
}

void DistributedEvalService::drop_worker(std::size_t widx, BatchState* batch,
                                         const char* why) {
  Worker dead = std::move(workers_[widx]);
  workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(widx));
  if (dead.fd >= 0) ::close(dead.fd);
  dead.lease.release();
  ++stats_.worker_deaths;
  PPAT_WARN << "coordinator: worker lost (" << why << "), "
            << workers_.size() << " remaining";
  if (dead.busy && batch != nullptr && !batch->done[dead.job_index]) {
    // The death consumed an attempt, like a failed result.
    fail_attempt(*batch, dead.job_index, "worker died during evaluation");
  }
  // The fleet was alive until this very disconnect, so the no-worker grace
  // period (if this was the last worker) starts NOW, not at the previous
  // connection event.
  last_worker_seen_ = clock::now();
}

void DistributedEvalService::handle_worker_frame(std::size_t widx,
                                                 BatchState* batch) {
  Worker& w = workers_[widx];
  std::optional<wire::Frame> frame;
  try {
    frame = wire::read_frame(w.fd);
  } catch (const wire::WireError&) {
    drop_worker(widx, batch, "read failed");
    return;
  }
  if (!frame.has_value()) {
    drop_worker(widx, batch, "disconnected");
    return;
  }
  try {
    switch (frame->type) {
      case wire::MsgType::kHeartbeat: {
        wire::Reader r(frame->payload);
        const std::uint64_t epoch = r.u64();
        if (epoch != options_.session_epoch) {
          drop_worker(widx, batch, "stale heartbeat epoch");
          return;
        }
        ++stats_.heartbeats;
        return;
      }
      case wire::MsgType::kEvalResult:
        break;
      default:
        drop_worker(widx, batch, "unexpected frame");
        return;
    }
    wire::Reader r(frame->payload);
    const std::uint64_t job_id = r.u64();
    const std::uint32_t attempt = r.u32();
    const bool ok = r.u8() != 0;
    if (batch == nullptr || !w.busy || job_id != w.job_index ||
        attempt != batch->records[w.job_index].attempts) {
      drop_worker(widx, batch, "result for a job it does not hold");
      return;
    }
    const std::size_t idx = w.job_index;
    const auto now = clock::now();
    const double run_ms =
        std::chrono::duration<double, std::milli>(now - w.dispatch_t0)
            .count();
    w.busy = false;
    w.lease.release();

    if (ok) {
      flow::QoR qor;
      qor.area_um2 = r.f64();
      qor.power_mw = r.f64();
      qor.delay_ns = r.f64();
      lifecycle_.succeed(batch->records[idx], qor, run_ms, batch->batch_t0,
                         now);
      finalize(*batch, idx);
      return;
    }
    fail_attempt(*batch, idx, r.str());
  } catch (const wire::WireError&) {
    drop_worker(widx, batch, "malformed frame");
  }
}

void DistributedEvalService::watchdog_sweep(BatchState& batch) {
  const double threshold_ms = lifecycle_.watchdog_threshold_ms();
  if (threshold_ms <= 0.0) return;
  const auto now = clock::now();
  for (std::size_t i = 0; i < workers_.size();) {
    Worker& w = workers_[i];
    const double elapsed_ms =
        w.busy ? std::chrono::duration<double, std::milli>(now - w.dispatch_t0)
                     .count()
               : 0.0;
    if (!w.busy || elapsed_ms <= threshold_ms) {
      ++i;
      continue;
    }
    const std::size_t idx = w.job_index;
    PPAT_WARN << "coordinator watchdog: cancelling hung run after "
              << elapsed_ms << " ms (threshold " << threshold_ms << " ms)";
    // Mark terminal FIRST: watchdog cancellation is permanent (the run is
    // known-hung), so the disconnect below must not schedule a retry.
    lifecycle_.cancel_hung(batch.records[idx]);
    finalize(batch, idx);
    // Disconnecting is the distributed cancel: the worker notices the dead
    // socket when it tries to reply and exits on its own.
    drop_worker(i, &batch, "watchdog cancel");
  }
}

void DistributedEvalService::poll_once(std::chrono::milliseconds timeout,
                                       BatchState* batch) {
  std::vector<pollfd> fds;
  fds.reserve(1 + workers_.size());
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const Worker& w : workers_) fds.push_back({w.fd, POLLIN, 0});

  const int pr =
      ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
  if (pr < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error(std::string("coordinator poll failed: ") +
                             std::strerror(errno));
  }
  if (fds[0].revents & POLLIN) accept_pending(batch);
  // Walk worker fds by VALUE: handle_worker_frame may drop workers and
  // reshuffle workers_, so re-find each fd before servicing it.
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int fd = fds[i].fd;
    const auto it =
        std::find_if(workers_.begin(), workers_.end(),
                     [fd](const Worker& w) { return w.fd == fd; });
    if (it == workers_.end()) continue;
    const auto widx = static_cast<std::size_t>(it - workers_.begin());
    if (fds[i].revents & POLLIN) {
      handle_worker_frame(widx, batch);
    } else {
      drop_worker(widx, batch, "hangup");
    }
  }
}

std::vector<flow::RunRecord> DistributedEvalService::evaluate_batch(
    const std::vector<flow::Config>& configs, const RunObserver& observer) {
  const std::size_t n = configs.size();
  BatchState batch;
  batch.configs = &configs;
  batch.observer = &observer;
  batch.records.resize(n);
  batch.digests.resize(n);
  batch.done.assign(n, false);
  batch.batch_t0 = clock::now();
  batch.run_t0.assign(n, batch.batch_t0);
  batch.remaining = n;
  if (n == 0) return batch.records;

  // Exactly-once pre-pass: candidates whose outcome is already in the
  // ledger are served from it and never dispatched — a resumed coordinator
  // cannot double-spend a completed tool run.
  for (std::size_t i = 0; i < n; ++i) {
    batch.digests[i] = config_digest(configs[i]);
    const journal::LedgerRecord* lrec =
        ledger_ != nullptr ? ledger_->find(batch.digests[i]) : nullptr;
    if (lrec == nullptr) {
      batch.pending.push_back(i);
      continue;
    }
    flow::RunRecord rec;
    rec.status = lrec->status;
    rec.attempts = lrec->attempts;
    rec.elapsed_ms = lrec->elapsed_ms;
    if (rec.ok() && lrec->values.size() == 3) {
      rec.qor.area_um2 = lrec->values[0];
      rec.qor.power_mw = lrec->values[1];
      rec.qor.delay_ns = lrec->values[2];
    }
    rec.error = lrec->error;
    batch.records[i] = std::move(rec);
    batch.done[i] = true;
    --batch.remaining;
    ++stats_.reveals_replayed;
    if (observer) observer(i, batch.records[i]);
  }

  if (!workers_.empty()) last_worker_seen_ = clock::now();
  while (batch.remaining > 0) {
    dispatch_ready(batch);
    if (batch.remaining == 0) break;
    poll_once(options_.poll_interval, &batch);
    watchdog_sweep(batch);

    // Whole-fleet loss: keep queued work alive for the grace period (a
    // replacement worker may dial in), then fail the remainder rather than
    // spin forever. In-flight work cannot exist here — no workers.
    if (workers_.empty() &&
        clock::now() - last_worker_seen_ > options_.no_worker_grace) {
      close_queued(batch, [&](flow::RunRecord& rec) {
        lifecycle_.fail(rec, "no workers available");
      });
    }
  }

  lifecycle_.count_batch();
  if (ledger_ != nullptr) ledger_->sync();
  return std::move(batch.records);
}

}  // namespace ppat::dist
