// Kill-and-resume integration test (the journal subsystem's headline
// guarantee): a tuning run SIGKILLed mid-loop — between rounds AND mid-batch
// from inside the oracle — must resume from its journal and finish with the
// BITWISE-identical Pareto set, ADRS, and hypervolume error as an
// uninterrupted run. Also exercises corrupt-tail recovery: a flipped byte in
// the journal tail is truncated to the last valid record and the resume
// still converges to the same result.
//
// This is a standalone binary (NOT part of ppat_tests): it re-executes
// itself via /proc/self/exe as a --child process that self-SIGKILLs, which
// must not happen inside the shared gtest process.
//
//   test_crash_resume --data <dir with source2.csv/target2.csv>
//     [--seed S]   randomization seed for the kill rounds (default: time)
//     [--server 1] run the multi-session server scenario instead: a
//                  server::SessionManager hosting THREE concurrent journaled
//                  sessions is SIGKILLed mid-batch; on restart all three
//                  sessions resume from their own journals and finish
//                  bitwise-identical to isolated uninterrupted runs.
//     [--hls 1]    run the mixed-space scenario instead: a transfer-GP
//                  PPATuner over the constrained HLS systolic-array space
//                  (small_gemm source -> large_gemm target, mixed kernel)
//                  is SIGKILLed between rounds and mid-batch; resumes must
//                  reproduce the uninterrupted run bitwise. (--data is
//                  accepted but unused; the HLS benchmark is synthesized.)
//
// Scenario task: Source2 -> Target2 (paper Table 1; 1440/727 points),
// power+delay objectives, transfer-GP PPATuner over a LiveCandidatePool
// whose oracle serves golden QoR from the benchmark table — deterministic,
// so bitwise comparison is meaningful — under 1 and 4 licenses.
//
// On failure the scratch directory (PPAT_CRASH_SCRATCH or
// ./crash_resume_scratch) is kept for inspection, including the journals.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flow/benchmark.hpp"
#include "flow/eval_service.hpp"
#include "hls/systolic.hpp"
#include "journal/journal.hpp"
#include "server/session_manager.hpp"
#include "tuner/live_pool.hpp"
#include "tuner/ppatuner.hpp"
#include "tuner/surrogate.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ppat;

const std::vector<std::size_t> kObjectives = {1, 2};  // power, delay

tuner::PPATunerOptions task_options() {
  tuner::PPATunerOptions opt;
  opt.seed = 42;
  opt.batch_size = 4;
  opt.max_runs = 80;
  opt.max_rounds = 40;
  opt.refit_every = 5;
  return opt;
}

/// Deterministic stand-in for the PD tool: serves each configuration's
/// golden QoR from the loaded benchmark table. Can SIGKILL the whole
/// process after a set number of evaluations (mid-batch crash injection).
class BenchmarkLookupOracle final : public flow::QorOracle {
 public:
  explicit BenchmarkLookupOracle(const flow::BenchmarkSet& set,
                                 long kill_after_evals = -1)
      : set_(set), kill_after_evals_(kill_after_evals) {
    for (std::size_t i = 0; i < set.configs.size(); ++i) {
      table_[key(set.configs[i])] = set.qor[i];
    }
  }

  flow::QoR evaluate(const flow::ParameterSpace&,
                     const flow::Config& config) override {
    const long n = ++evals_;
    if (kill_after_evals_ >= 0 && n > kill_after_evals_) {
      ::raise(SIGKILL);
    }
    const auto it = table_.find(key(config));
    if (it == table_.end()) {
      throw flow::ToolRunError("configuration not in the benchmark table");
    }
    return it->second;
  }
  std::size_t run_count() const override {
    return static_cast<std::size_t>(evals_.load());
  }

 private:
  static std::string key(const flow::Config& config) {
    return std::string(reinterpret_cast<const char*>(config.data()),
                       config.size() * sizeof(double));
  }

  const flow::BenchmarkSet& set_;
  std::map<std::string, flow::QoR> table_;
  std::atomic<long> evals_{0};
  long kill_after_evals_;
};

struct Task {
  flow::BenchmarkSet source;
  flow::BenchmarkSet target;
};

Task load_task(const std::string& data_dir) {
  Task t;
  t.source = flow::load_benchmark_csv(data_dir + "/source2.csv", "source2",
                                      flow::source2_space());
  t.target = flow::load_benchmark_csv(data_dir + "/target2.csv", "target2",
                                      flow::target2_space());
  return t;
}

/// The bitwise comparison payload: Pareto indices verbatim, tool runs, and
/// ADRS / hypervolume error printed as %a hex floats (every bit visible).
std::string fingerprint(const Task& task, const tuner::TuningResult& result) {
  tuner::BenchmarkCandidatePool scoring(&task.target, kObjectives);
  const auto q = tuner::evaluate_result(scoring, result);
  std::ostringstream out;
  out << "pareto:";
  for (std::size_t i : result.pareto_indices) out << " " << i;
  char buf[64];
  std::snprintf(buf, sizeof buf, "\nadrs: %a\nhv_error: %a\n", q.adrs,
                q.hv_error);
  out << "\ntool_runs: " << result.tool_runs << buf;
  return out.str();
}

/// Runs the Source2->Target2 tuning once in THIS process. `journal_dir`
/// empty = no journal (baseline). kill_round > 0: SIGKILL between rounds
/// when the loop reaches that round. kill_evals >= 0: SIGKILL mid-batch
/// after that many oracle evaluations.
std::string run_task(const Task& task, const std::string& journal_dir,
                     std::size_t licenses, long kill_round, long kill_evals,
                     std::size_t* rounds_out = nullptr) {
  BenchmarkLookupOracle oracle(task.target, kill_evals);
  flow::EvalServiceOptions svc;
  svc.licenses = licenses;
  flow::EvalService service(oracle, flow::target2_space(), svc);
  tuner::LiveCandidatePool pool(task.target.configs, kObjectives, service);

  std::unique_ptr<journal::RunJournal> jnl;
  if (!journal_dir.empty()) {
    bool has_journal = false;
    if (fs::exists(journal_dir)) {
      for (const auto& e : fs::directory_iterator(journal_dir)) {
        const auto ext = e.path().extension();
        if (ext == ".seg" || ext == ".open") has_journal = true;
      }
    }
    jnl = has_journal ? journal::RunJournal::open_resume(journal_dir)
                      : journal::RunJournal::create(journal_dir);
  }

  auto opt = task_options();
  opt.journal = jnl.get();
  if (kill_round > 0) {
    opt.on_round = [kill_round](const tuner::PPATunerProgress& p) {
      if (p.round >= static_cast<std::size_t>(kill_round)) ::raise(SIGKILL);
    };
  }
  const auto source_data = tuner::SourceData::from_benchmark(
      task.source, kObjectives, 200, task_options().seed + 1);
  const auto factory = tuner::make_transfer_gp_factory(source_data);
  tuner::PPATunerDiagnostics diag;
  const auto result = tuner::run_ppatuner(pool, factory, opt, &diag);
  if (rounds_out != nullptr) *rounds_out = diag.rounds;
  return fingerprint(task, result);
}

// ---- Child mode -----------------------------------------------------------

int child_main(const std::map<std::string, std::string>& args) {
  const Task task = load_task(args.at("--data"));
  const long kill_round =
      args.count("--kill-round") ? std::stol(args.at("--kill-round")) : 0;
  const long kill_evals =
      args.count("--kill-evals") ? std::stol(args.at("--kill-evals")) : -1;
  const auto licenses =
      static_cast<std::size_t>(std::stoul(args.at("--licenses")));
  const std::string fp = run_task(task, args.at("--journal"), licenses,
                                  kill_round, kill_evals);
  std::ofstream out(args.at("--out"), std::ios::binary | std::ios::trunc);
  out << fp;
  return out.good() ? 0 : 1;
}

// ---- Multi-session server scenario ----------------------------------------
//
// Three tenants with different tuner seeds/batch sizes share one
// SessionManager (and its LicenseBroker). The crash is injected through a
// PROCESS-WIDE evaluation counter — whichever session's eval thread crosses
// the threshold takes the whole server down, mid-batch for everyone.

/// Benchmark-lookup oracle whose kill trigger counts evaluations across ALL
/// sessions in the process, not just its own.
class SharedKillOracle final : public flow::QorOracle {
 public:
  SharedKillOracle(const flow::BenchmarkSet& set, std::atomic<long>& shared,
                   long kill_after_evals)
      : inner_(set), shared_(shared), kill_after_evals_(kill_after_evals) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    const long n = ++shared_;
    if (kill_after_evals_ >= 0 && n > kill_after_evals_) {
      ::raise(SIGKILL);
    }
    return inner_.evaluate(space, config);
  }
  std::size_t run_count() const override { return inner_.run_count(); }

 private:
  BenchmarkLookupOracle inner_;
  std::atomic<long>& shared_;
  long kill_after_evals_;
};

constexpr int kTenants = 3;

tuner::PPATunerOptions tenant_options(int tenant) {
  tuner::PPATunerOptions opt;
  opt.seed = 100 + 7 * static_cast<std::uint64_t>(tenant);
  opt.batch_size = 3 + static_cast<std::size_t>(tenant);
  opt.max_runs = 40;
  opt.max_rounds = 25;
  opt.refit_every = 5;
  opt.num_threads = 1;
  return opt;
}

/// Uninterrupted single-tenant run in THIS process, no journal, no broker —
/// the reference each resumed server session must reproduce bitwise.
std::string run_tenant_isolated(const Task& task, int tenant) {
  BenchmarkLookupOracle oracle(task.target);
  flow::EvalServiceOptions svc;
  svc.licenses = 2;
  flow::EvalService service(oracle, flow::target2_space(), svc);
  tuner::LiveCandidatePool pool(task.target.configs, kObjectives, service);
  const auto result = tuner::run_ppatuner(
      pool, tuner::make_plain_gp_factory(), tenant_options(tenant));
  return fingerprint(task, result);
}

/// Child mode: host all three tenants concurrently in one SessionManager.
/// kill_evals >= 0 arms the shared crash trigger; -1 runs (or resumes) to
/// completion and writes each tenant's fingerprint to <out>.s<tenant>.
int server_child_main(const std::map<std::string, std::string>& args) {
  const Task task = load_task(args.at("--data"));
  const long kill_evals =
      args.count("--kill-evals") ? std::stol(args.at("--kill-evals")) : -1;
  const std::string journal_root = args.at("--journal");
  const std::string out = args.at("--out");

  std::atomic<long> process_evals{0};

  server::SessionManagerOptions mopt;
  mopt.max_sessions = kTenants;
  mopt.total_licenses = 2;  // fewer licenses than sessions: real contention
  mopt.handle_signals = false;
  server::SessionManager manager(mopt);

  std::vector<std::uint64_t> ids;
  for (int t = 0; t < kTenants; ++t) {
    server::SessionConfig cfg;
    cfg.name = "tenant" + std::to_string(t);
    cfg.space = flow::target2_space();
    cfg.candidates = task.target.configs;
    cfg.objectives = kObjectives;
    cfg.make_oracle = [&task, &process_evals, kill_evals] {
      return std::make_unique<SharedKillOracle>(task.target, process_evals,
                                                kill_evals);
    };
    cfg.tuner = tenant_options(t);
    cfg.eval.licenses = 2;
    cfg.journal_dir = journal_root + "/s" + std::to_string(t);
    cfg.worker_threads = 1;
    ids.push_back(manager.open(cfg));
  }

  bool ok = true;
  for (int t = 0; t < kTenants; ++t) {
    const auto result = manager.wait(ids[t]);
    std::ofstream file(out + ".s" + std::to_string(t),
                       std::ios::binary | std::ios::trunc);
    file << fingerprint(task, result);
    ok = ok && file.good();
  }
  return ok ? 0 : 1;
}

// ---- Mixed-space (HLS) scenario -------------------------------------------
//
// Same kill-and-resume contract, but over the constrained systolic-array
// space: conditional/divisibility parameters, the mixed categorical kernel
// (direct-NLL fit path), and a transfer-GP seeded from the small-array
// task. The benchmark is synthesized deterministically, so the lookup
// oracle stays bitwise-reproducible without CSV data.

struct HlsTask {
  flow::BenchmarkSet source;
  flow::BenchmarkSet target;
};

HlsTask load_hls_task() {
  HlsTask t;
  t.source =
      hls::build_systolic_benchmark("hls_src", hls::small_gemm(), 300, 33);
  t.target =
      hls::build_systolic_benchmark("hls_tgt", hls::large_gemm(), 250, 34);
  return t;
}

tuner::PPATunerOptions hls_options() {
  tuner::PPATunerOptions opt;
  opt.seed = 17;
  opt.batch_size = 4;
  opt.max_runs = 48;
  opt.max_rounds = 30;
  opt.refit_every = 5;
  return opt;
}

std::string hls_fingerprint(const HlsTask& task,
                            const tuner::TuningResult& result) {
  tuner::BenchmarkCandidatePool scoring(&task.target, tuner::kAreaPowerDelay);
  const auto q = tuner::evaluate_result(scoring, result);
  std::ostringstream out;
  out << "pareto:";
  for (std::size_t i : result.pareto_indices) out << " " << i;
  char buf[64];
  std::snprintf(buf, sizeof buf, "\nadrs: %a\nhv_error: %a\n", q.adrs,
                q.hv_error);
  out << "\ntool_runs: " << result.tool_runs << buf;
  return out.str();
}

std::string hls_run_task(const HlsTask& task, const std::string& journal_dir,
                         std::size_t licenses, long kill_round,
                         long kill_evals, std::size_t* rounds_out = nullptr) {
  const auto space = hls::systolic_space(hls::large_gemm());
  BenchmarkLookupOracle oracle(task.target, kill_evals);
  flow::EvalServiceOptions svc;
  svc.licenses = licenses;
  flow::EvalService service(oracle, space, svc);
  tuner::LiveCandidatePool pool(task.target.configs, tuner::kAreaPowerDelay,
                                service);

  std::unique_ptr<journal::RunJournal> jnl;
  if (!journal_dir.empty()) {
    bool has_journal = false;
    if (fs::exists(journal_dir)) {
      for (const auto& e : fs::directory_iterator(journal_dir)) {
        const auto ext = e.path().extension();
        if (ext == ".seg" || ext == ".open") has_journal = true;
      }
    }
    jnl = has_journal ? journal::RunJournal::open_resume(journal_dir)
                      : journal::RunJournal::create(journal_dir);
  }

  auto opt = hls_options();
  opt.journal = jnl.get();
  if (kill_round > 0) {
    opt.on_round = [kill_round](const tuner::PPATunerProgress& p) {
      if (p.round >= static_cast<std::size_t>(kill_round)) ::raise(SIGKILL);
    };
  }
  const auto source_data = tuner::SourceData::from_benchmark(
      task.source, tuner::kAreaPowerDelay, 200, 7);
  const auto factory =
      tuner::default_transfer_gp_factory_for(space, source_data);
  tuner::PPATunerDiagnostics diag;
  const auto result = tuner::run_ppatuner(pool, factory, opt, &diag);
  if (rounds_out != nullptr) *rounds_out = diag.rounds;
  return hls_fingerprint(task, result);
}

int hls_child_main(const std::map<std::string, std::string>& args) {
  const HlsTask task = load_hls_task();
  const long kill_round =
      args.count("--kill-round") ? std::stol(args.at("--kill-round")) : 0;
  const long kill_evals =
      args.count("--kill-evals") ? std::stol(args.at("--kill-evals")) : -1;
  const auto licenses =
      static_cast<std::size_t>(std::stoul(args.at("--licenses")));
  const std::string fp = hls_run_task(task, args.at("--journal"), licenses,
                                      kill_round, kill_evals);
  std::ofstream out(args.at("--out"), std::ios::binary | std::ios::trunc);
  out << fp;
  return out.good() ? 0 : 1;
}

struct ChildExit {
  bool signalled = false;
  int code = 0;  // exit status, or the signal number when signalled
};

ChildExit spawn_child(const std::vector<std::string>& argv_strings) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(3);
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("/proc/self/exe"));
    for (const auto& s : argv_strings) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    std::exit(3);
  }
  ChildExit e;
  if (WIFSIGNALED(status)) {
    e.signalled = true;
    e.code = WTERMSIG(status);
  } else {
    e.code = WEXITSTATUS(status);
  }
  return e;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  ok: %s\n", what.c_str());
  } else {
    std::printf("  FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream data;
  data << in.rdbuf();
  return data.str();
}

/// Flips one byte near the end of the journal's highest-sequence segment.
void corrupt_tail(const std::string& journal_dir) {
  fs::path last;
  for (const auto& e : fs::directory_iterator(journal_dir)) {
    if (last.empty() || e.path().filename() > last.filename()) last = e.path();
  }
  const auto size = fs::file_size(last);
  const std::uint64_t victim = size - std::min<std::uint64_t>(size / 8 + 1, 64);
  std::fstream f(last, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(victim));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(victim));
  f.write(&byte, 1);
  std::printf("  corrupted byte %llu of %s (size %llu)\n",
              static_cast<unsigned long long>(victim), last.c_str(),
              static_cast<unsigned long long>(size));
}

/// Checks the journal a 1-license mid-batch kill left behind: exactly
/// `kill_evals` reveal records (EvalService reports each run to the
/// tuner's journal writer before it starts the next), at least one of them
/// after the last selection, whose batch never committed.
void check_durable_reveals(const std::string& journal_dir, long kill_evals) {
  using Kind = journal::JournalEntry::Kind;
  long reveals = 0;
  long open_batch_reveals = 0;
  bool batch_open = false;
  for (const auto& e : journal::read_journal(journal_dir).entries) {
    if (e.kind == Kind::kSelection) {
      batch_open = true;
      open_batch_reveals = 0;
    } else if (e.kind == Kind::kReveal) {
      ++reveals;
      ++open_batch_reveals;
    } else if (e.kind == Kind::kBatchCommit) {
      batch_open = false;
    }
  }
  check(reveals == kill_evals,
        "journal holds exactly the " + std::to_string(kill_evals) +
            " completed runs (found " + std::to_string(reveals) + ")");
  check(batch_open && open_batch_reveals >= 1,
        "the uncommitted batch's completed runs are journaled (" +
            std::to_string(open_batch_reveals) + ")");
}

/// One full scenario: spawn a child that crashes, optionally corrupt the
/// journal tail, then resume (possibly through several crashes) and compare
/// against the baseline fingerprint. `after_kill` inspects the journal the
/// crashed child left behind.
void run_scenario(
    const std::string& name, const std::string& scratch,
    const std::string& data_dir, const std::string& baseline,
    std::size_t licenses, long kill_round, long kill_evals, bool corrupt,
    const char* child_flag = "--child",
    const std::function<void(const std::string&)>& after_kill = {}) {
  std::printf("scenario %s (licenses=%zu kill_round=%ld kill_evals=%ld%s)\n",
              name.c_str(), licenses, kill_round, kill_evals,
              corrupt ? " corrupt-tail" : "");
  const std::string dir = scratch + "/" + name + ".journal";
  const std::string out = scratch + "/" + name + ".result";
  fs::remove_all(dir);
  fs::remove(out);

  std::vector<std::string> base_args = {
      child_flag,   "1",   "--data", data_dir, "--journal", dir,
      "--licenses", std::to_string(licenses),  "--out",     out};

  auto kill_args = base_args;
  if (kill_round > 0) {
    kill_args.push_back("--kill-round");
    kill_args.push_back(std::to_string(kill_round));
  }
  if (kill_evals >= 0) {
    kill_args.push_back("--kill-evals");
    kill_args.push_back(std::to_string(kill_evals));
  }
  const ChildExit crashed = spawn_child(kill_args);
  check(crashed.signalled && crashed.code == SIGKILL,
        "child was SIGKILLed mid-run");
  check(fs::exists(dir), "journal directory survives the kill");
  if (after_kill) after_kill(dir);

  if (corrupt) corrupt_tail(dir);

  const ChildExit resumed = spawn_child(base_args);
  check(!resumed.signalled && resumed.code == 0, "resumed child completed");
  const std::string fp = read_file(out);
  check(!fp.empty(), "resumed child wrote its result");
  check(fp == baseline, "resumed result is bitwise-identical to baseline");
  if (fp != baseline) {
    std::printf("--- baseline ---\n%s--- resumed ---\n%s---\n",
                baseline.c_str(), fp.c_str());
  }
}

/// `--hls 1` entry: baseline the mixed-space transfer run uninterrupted,
/// then kill it between rounds and mid-batch; every resume must land on the
/// baseline fingerprint bitwise (acceptance gate for journal-resumable
/// mixed-space runs).
int hls_orchestrate(const std::map<std::string, std::string>& args) {
  const std::string data_dir = args.at("--data");
  const char* scratch_env = std::getenv("PPAT_CRASH_SCRATCH");
  const std::string scratch =
      std::string(scratch_env != nullptr ? scratch_env
                                         : "crash_resume_scratch") +
      "_hls";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  const std::uint64_t seed =
      args.count("--seed")
          ? std::stoull(args.at("--seed"))
          : static_cast<std::uint64_t>(std::time(nullptr));
  std::printf("randomization seed: %llu (rerun with --seed to reproduce)\n",
              static_cast<unsigned long long>(seed));
  common::Rng rng(seed);

  const HlsTask task = load_hls_task();
  std::printf("HLS baseline run (uninterrupted, licenses=1)...\n");
  std::size_t baseline_rounds = 0;
  const std::string baseline =
      hls_run_task(task, "", 1, 0, -1, &baseline_rounds);
  std::printf("rounds: %zu\n%s", baseline_rounds, baseline.c_str());
  if (baseline_rounds < 3) {
    std::printf("FAIL: baseline finished in %zu rounds; nothing to kill\n",
                baseline_rounds);
    return 1;
  }
  std::printf("HLS baseline run (uninterrupted, licenses=4)...\n");
  const std::string baseline4 = hls_run_task(task, "", 4, 0, -1);
  check(baseline4 == baseline, "licenses=4 baseline matches licenses=1");

  const auto max_kill = static_cast<std::uint64_t>(
      std::min<std::size_t>(baseline_rounds - 1, 12));
  // Between-round kills at both license counts.
  const long kill_a = 1 + static_cast<long>(rng.next_below(max_kill));
  long kill_b = 1 + static_cast<long>(rng.next_below(max_kill));
  if (kill_b == kill_a) kill_b = kill_a == 1 ? 2 : kill_a - 1;
  run_scenario("hls_kill_round_" + std::to_string(kill_a) + "_lic1", scratch,
               data_dir, baseline, 1, kill_a, -1, false, "--hls-child");
  run_scenario("hls_kill_round_" + std::to_string(kill_b) + "_lic4", scratch,
               data_dir, baseline, 4, kill_b, -1, false, "--hls-child");
  // Mid-batch kill from inside the oracle (torn batch in the journal).
  const long kill_evals =
      11 + static_cast<long>(rng.next_below(4 * (baseline_rounds - 1)));
  run_scenario("hls_kill_midbatch", scratch, data_dir, baseline, 4, 0,
               kill_evals, false, "--hls-child");

  if (g_failures == 0) {
    fs::remove_all(scratch);
    std::printf("PASS: all HLS mixed-space resumes bitwise-identical\n");
    return 0;
  }
  std::printf("FAIL: %d check(s) failed; scratch kept at %s\n", g_failures,
              scratch.c_str());
  return 1;
}

/// `--server 1` entry: baseline each tenant in isolation, SIGKILL a
/// three-session server mid-batch, restart it, and demand every session's
/// resumed result be bitwise-identical to its isolated baseline.
int server_orchestrate(const std::map<std::string, std::string>& args) {
  const std::string data_dir = args.at("--data");
  const char* scratch_env = std::getenv("PPAT_CRASH_SCRATCH");
  const std::string scratch =
      std::string(scratch_env != nullptr ? scratch_env
                                         : "crash_resume_scratch") +
      "_server";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  const std::uint64_t seed =
      args.count("--seed")
          ? std::stoull(args.at("--seed"))
          : static_cast<std::uint64_t>(std::time(nullptr));
  std::printf("randomization seed: %llu (rerun with --seed to reproduce)\n",
              static_cast<unsigned long long>(seed));
  common::Rng rng(seed);

  const Task task = load_task(data_dir);
  std::vector<std::string> baselines;
  for (int t = 0; t < kTenants; ++t) {
    std::printf("tenant %d baseline (isolated, uninterrupted)...\n", t);
    baselines.push_back(run_tenant_isolated(task, t));
  }

  const std::string dir = scratch + "/server.journals";
  const std::string out = scratch + "/server.result";

  // Kill threshold: past the point where every session has journaled work
  // (3 sessions x ~10 init evals) but well inside the tuning loops, so the
  // SIGKILL lands mid-batch with all three journals mid-flight.
  const long kill_evals = 35 + static_cast<long>(rng.next_below(30));
  std::printf("server scenario (3 sessions, kill after %ld total evals)\n",
              kill_evals);
  const ChildExit crashed = spawn_child(
      {"--server-child", "1", "--data", data_dir, "--journal", dir, "--out",
       out, "--kill-evals", std::to_string(kill_evals)});
  check(crashed.signalled && crashed.code == SIGKILL,
        "server process was SIGKILLed mid-batch");
  for (int t = 0; t < kTenants; ++t) {
    check(fs::exists(dir + "/s" + std::to_string(t)),
          "session " + std::to_string(t) + " journal survives the kill");
  }

  const ChildExit resumed = spawn_child(
      {"--server-child", "1", "--data", data_dir, "--journal", dir, "--out",
       out});
  check(!resumed.signalled && resumed.code == 0,
        "restarted server drained all three sessions");
  for (int t = 0; t < kTenants; ++t) {
    const std::string fp = read_file(out + ".s" + std::to_string(t));
    check(!fp.empty(),
          "session " + std::to_string(t) + " wrote its resumed result");
    check(fp == baselines[static_cast<std::size_t>(t)],
          "session " + std::to_string(t) +
              " resumed bitwise-identical to its isolated baseline");
    if (fp != baselines[static_cast<std::size_t>(t)]) {
      std::printf("--- baseline %d ---\n%s--- resumed %d ---\n%s---\n", t,
                  baselines[static_cast<std::size_t>(t)].c_str(), t,
                  fp.c_str());
    }
  }

  if (g_failures == 0) {
    fs::remove_all(scratch);
    std::printf("PASS: all server sessions resumed bitwise-identical\n");
    return 0;
  }
  std::printf("FAIL: %d check(s) failed; scratch kept at %s\n", g_failures,
              scratch.c_str());
  return 1;
}

int orchestrate(const std::map<std::string, std::string>& args) {
  const std::string data_dir = args.at("--data");
  const char* scratch_env = std::getenv("PPAT_CRASH_SCRATCH");
  const std::string scratch =
      scratch_env != nullptr ? scratch_env : "crash_resume_scratch";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  const std::uint64_t seed =
      args.count("--seed")
          ? std::stoull(args.at("--seed"))
          : static_cast<std::uint64_t>(std::time(nullptr));
  std::printf("randomization seed: %llu (rerun with --seed to reproduce)\n",
              static_cast<unsigned long long>(seed));
  common::Rng rng(seed);

  const Task task = load_task(data_dir);
  std::printf("baseline run (uninterrupted, licenses=1)...\n");
  std::size_t baseline_rounds = 0;
  const std::string baseline = run_task(task, "", 1, 0, -1, &baseline_rounds);
  std::printf("rounds: %zu\n%s", baseline_rounds, baseline.c_str());
  if (baseline_rounds < 3) {
    std::printf("FAIL: baseline finished in %zu rounds; nothing to kill\n",
                baseline_rounds);
    return 1;
  }

  // The bitwise guarantee must be license-independent: the same baseline
  // serves both license counts (verified directly here).
  std::printf("baseline run (uninterrupted, licenses=4)...\n");
  const std::string baseline4 = run_task(task, "", 4, 0, -1);
  check(baseline4 == baseline, "licenses=4 baseline matches licenses=1");

  // >= 3 randomized kill rounds strictly inside the run, split across both
  // license counts. (A kill round past the loop's natural end would let the
  // "crash" child complete normally.)
  const auto max_kill =
      static_cast<std::uint64_t>(std::min<std::size_t>(baseline_rounds - 1, 12));
  std::vector<long> kill_rounds;
  while (kill_rounds.size() < std::min<std::size_t>(3, max_kill)) {
    const long r = 1 + static_cast<long>(rng.next_below(max_kill));
    bool dup = false;
    for (long k : kill_rounds) dup = dup || k == r;
    if (!dup) kill_rounds.push_back(r);
  }
  for (std::size_t i = 0; i < kill_rounds.size(); ++i) {
    const std::size_t licenses = i % 2 == 0 ? 1 : 4;
    run_scenario("kill_round_" + std::to_string(kill_rounds[i]) + "_lic" +
                     std::to_string(licenses),
                 scratch, data_dir, baseline, licenses, kill_rounds[i], -1,
                 false);
  }

  // Mid-batch crash: SIGKILL from inside the oracle while a 4-license batch
  // is in flight — the per-completion journal hook has already persisted
  // part of the batch, so resume recovers a torn batch.
  // Init takes ~10 evaluations and each round up to 4 more; landing the
  // kill between those bounds guarantees it happens inside a round's batch.
  const long kill_evals =
      11 + static_cast<long>(rng.next_below(4 * (baseline_rounds - 1)));
  run_scenario("kill_midbatch", scratch, data_dir, baseline, 4, 0, kill_evals,
               false);

  // Corrupt-tail: crash, then flip a byte near the journal tail. Resume
  // must truncate to the last valid record and still converge bitwise.
  run_scenario("corrupt_tail", scratch, data_dir, baseline, 1,
               1 + static_cast<long>(rng.next_below(max_kill)), -1, true);

  // Per-completion durability. A journal written only at batch end would
  // pass the scenarios above (the resume re-runs the lost reveals live),
  // so this one reads the journal itself: a 1-license kill after 1-3 runs
  // of a round's 4-run batch (init is 10 runs) must leave every completed
  // run journaled, including those of the uncommitted batch.
  const long durable_evals =
      10 + 4 * static_cast<long>(rng.next_below(max_kill)) + 1 +
      static_cast<long>(rng.next_below(3));
  run_scenario("kill_midbatch_durable_lic1", scratch, data_dir, baseline, 1,
               0, durable_evals, false, "--child",
               [durable_evals](const std::string& dir) {
                 check_durable_reveals(dir, durable_evals);
               });

  if (g_failures == 0) {
    fs::remove_all(scratch);
    std::printf("PASS: all crash-resume scenarios bitwise-identical\n");
    return 0;
  }
  std::printf("FAIL: %d check(s) failed; scratch kept at %s\n", g_failures,
              scratch.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && i + 1 < argc) {
      const std::string key = argv[i];
      args[key] = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s --data <dir> [--seed S]\n", argv[0]);
      return 2;
    }
  }
  if (args.count("--data") == 0) {
    std::fprintf(stderr, "missing --data <dir with source2/target2 csvs>\n");
    return 2;
  }
  try {
    if (args.count("--server-child")) return server_child_main(args);
    if (args.count("--hls-child")) return hls_child_main(args);
    if (args.count("--child")) return child_main(args);
    if (args.count("--server")) return server_orchestrate(args);
    if (args.count("--hls")) return hls_orchestrate(args);
    return orchestrate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
