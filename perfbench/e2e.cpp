// perfbench_e2e: runs ONE workload of the end-to-end benchmark in this
// process and writes its raw measurements as JSON. run.py starts one
// process per workload (so set-up time, memory and CPU belong to that
// workload), turns the raw record into metrics and checks the outputs.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --data DIR --tmp DIR --worker BIN --out FILE
//
// Workloads (the seed is the only varying input):
//   replay-target2  Table 3 protocol over data/{source2,target2}.csv: five
//                   methods x three objective spaces, every reveal a table
//                   lookup. The jobs replay bench_table3's seed; the
//                   benchmark seed sets the order they run in.
//   pool-cold       flow::build_or_load into an empty directory: a Source2
//                   pool on the small MAC and a Target2 pool on the large MAC.
//   live-target2    one server::SessionManager session, PPATuner with
//                   Source2 transfer, every reveal a live large-MAC PDTool
//                   run on 4 shared licenses, journaled.
//   fleet-hls       PPATuner with hls_small transfer over hls_large designs,
//                   reveals dispatched to 4 ppatuner_worker processes
//                   through dist::DistributedEvalService with a ledger.
//
// A run measures a fixed number of instances of its workload, about
// --seconds of them, each with inputs from its own seed derived from --seed.
// Set-up is repeated several times and reported as a median.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/aspdac20.hpp"
#include "baselines/dac19.hpp"
#include "baselines/mlcad19.hpp"
#include "baselines/tcad19.hpp"
#include "dist/coordinator.hpp"
#include "flow/benchmark.hpp"
#include "hls/systolic.hpp"
#include "journal/journal.hpp"
#include "journal/reveal_ledger.hpp"
#include "netlist/mac_generator.hpp"
#include "server/session_manager.hpp"
#include "trace.hpp"
#include "tuner/live_pool.hpp"
#include "tuner/ppatuner.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

namespace fs = std::filesystem;
using namespace ppat;
using perfbench::now_s;
using perfbench::ScopedSpan;
using perfbench::Trace;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "data";
  std::string tmp_dir;
  std::string worker_bin;
  std::string out_path;
};

/// Intervals between consecutive updates a user sees: tuner rounds, or
/// finished pool points on pool-cold.
struct Updates {
  double last = 0.0;
  std::vector<double> intervals_ms;

  void start(double t) { last = t; }
  void stamp(double t) {
    intervals_ms.push_back(1e3 * (t - last));
    last = t;
  }
};

/// One measured pass. Times are seconds from now_s()'s epoch.
struct Pass {
  double t0 = 0.0;
  double t1 = 0.0;
  std::size_t evals = 0;      ///< tool evaluations completed
  std::size_t attempted = 0;  ///< evaluations attempted
  std::size_t failed = 0;     ///< failed, timed out or never dispatched
  Updates updates;
  std::uint64_t digest = 0;     ///< fronts + run counts (+ selections)
  // Result quality (tuning workloads).
  double hv_error = 0.0;
  double adrs = 0.0;
  double tool_runs = 0.0;
  std::size_t rounds = 0;
  std::size_t dropped = 0;
  std::size_t classified_pareto = 0;
  std::size_t revealed_on_front = 0;
  std::size_t revealed = 0;
  /// Layer counts read from public accessors (stats(), journal, ledger).
  std::map<std::string, double> stats;
};

std::size_t nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t hash_front(std::uint64_t h, std::vector<std::size_t> front,
                         std::size_t runs) {
  std::sort(front.begin(), front.end());
  h = journal::mix_hash(h, front.size());
  for (std::size_t i : front) h = journal::mix_hash(h, i);
  return journal::mix_hash(h, runs);
}

std::uint64_t hash_set(std::uint64_t h, const flow::BenchmarkSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    h = journal::hash_doubles(h, set.configs[i]);
    const double q[3] = {set.qor[i].area_um2, set.qor[i].power_mw,
                         set.qor[i].delay_ns};
    h = journal::hash_doubles(h, q);
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_qor(const flow::QoR& a, const flow::QoR& b) {
  return same_bits(a.area_um2, b.area_um2) &&
         same_bits(a.power_mw, b.power_mw) && same_bits(a.delay_ns, b.delay_ns);
}

const netlist::CellLibrary& cell_library() {
  static const netlist::CellLibrary lib = netlist::CellLibrary::make_default();
  return lib;
}

/// The tool the committed CSVs were generated with (bench_common.cpp).
std::unique_ptr<flow::PDTool> make_pdtool(bool large) {
  ScopedSpan span(large ? "pdsim.large.setup" : "pdsim.small.setup");
  return std::make_unique<flow::PDTool>(
      &cell_library(),
      large ? netlist::large_mac_config() : netlist::small_mac_config(), 42);
}

/// Revealed candidates that lie on the pool's golden front.
void score_reveals(const tuner::BenchmarkCandidatePool& golden,
                   const std::vector<std::size_t>& revealed, Pass& pass) {
  std::vector<pareto::Point> pts;
  pts.reserve(golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    pts.push_back(golden.golden(i));
  }
  std::vector<char> on_front(golden.size(), 0);
  for (std::size_t i : pareto::pareto_front_indices(pts)) on_front[i] = 1;
  for (std::size_t i : revealed) {
    pass.revealed_on_front += on_front.at(i) != 0 ? 1 : 0;
  }
  pass.revealed += revealed.size();
}

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds everything instance `k` needs; timed as setup_s.
  virtual void setup(std::size_t k) = 0;
  /// Measures instance `k` over the latest set-up, which was setup(k).
  virtual Pass run(std::size_t k) = 0;
  /// Typical pass length; a run measures about --seconds of passes.
  virtual double nominal_pass_s() const = 0;
  /// Frees the previous set-up (untimed, so set-up time excludes it).
  virtual void release() {}
  /// Seed-independent output checks, run once after the passes (untimed).
  virtual void check() {}
  /// Run configuration recorded with every result.
  virtual std::map<std::string, double> config() const = 0;

  std::vector<std::string> failures;

 protected:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  std::string tmp(const std::string& leaf) const {
    return args_.tmp_dir + "/" + leaf;
  }
  /// Input seed of instance k: every instance of a run sees new inputs.
  std::uint64_t seed(std::size_t k) const {
    return args_.seed + 1000003ull * k;
  }

  const Args& args_;
};

// ---- replay-target2 --------------------------------------------------------

class ReplayTarget2 final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::size_t) override {
    source_ = flow::load_benchmark_csv(args_.data_dir + "/source2.csv",
                                       "source2", flow::source2_space());
    target_ = flow::load_benchmark_csv(args_.data_dir + "/target2.csv",
                                       "target2", flow::target2_space());
    sources_.clear();
    for (const auto& objectives : spaces()) {
      sources_.push_back(tuner::SourceData::from_benchmark(
          source_, objectives, 200, kTableSeed + 1));
    }
  }

  Pass run(std::size_t k) override {
    Pass pass;
    std::vector<std::size_t> order(15);
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    common::Rng(seed(k)).shuffle(order);
    std::vector<tuner::TuningResult> results(order.size());
    pass.t0 = now_s();
    for (std::size_t job : order) {
      const std::size_t s = job / 5;
      const std::size_t m = job % 5;
      tuner::BenchmarkCandidatePool pool(&target_, spaces()[s]);
      tuner::TuningResult& result = results[job];
      {
        ScopedSpan span(std::string("job.") + kMethods[m]);
        result = run_method(m, pool, s, pass);
      }
      tuner::ResultQuality q;
      {
        ScopedSpan span("pareto.score");
        q = tuner::evaluate_result(pool, result);
      }
      expect(result.tool_runs == pool.runs() &&
                 result.tool_runs <= kBudgets[m] && result.failed_runs == 0,
             std::string("replay: ") + kMethods[m] + " run accounting");
      for (std::size_t i : result.pareto_indices) {
        expect(i < pool.size(), "replay: front index out of range");
      }
      expect(std::isfinite(q.hv_error) && std::isfinite(q.adrs),
             "replay: non-finite quality");
      pass.evals += result.tool_runs;
      if (m == 4) {
        pass.hv_error += q.hv_error / 3.0;
        pass.adrs += q.adrs / 3.0;
        pass.tool_runs += static_cast<double>(q.runs) / 3.0;
        std::vector<std::size_t> revealed;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (pool.is_revealed(i)) revealed.push_back(i);
        }
        score_reveals(pool, revealed, pass);
      }
    }
    pass.t1 = now_s();
    pass.attempted = pass.evals;
    std::uint64_t h = 0x5245504cu;
    for (std::size_t job = 0; job < results.size(); ++job) {
      h = hash_front(journal::mix_hash(h, job), results[job].pareto_indices,
                     results[job].tool_runs);
    }
    pass.digest = h;
    return pass;
  }

  double nominal_pass_s() const override { return 8.0; }

  std::map<std::string, double> config() const override {
    return {{"threads", static_cast<double>(nproc())},
            {"jobs", 15},
            {"pool", static_cast<double>(target_.size())},
            {"source_points", 200}};
  }

 private:
  static constexpr const char* kMethods[5] = {"tcad19", "mlcad19", "dac19",
                                              "aspdac20", "ppatuner"};
  /// Table 3 operating points (bench_common.cpp scenario_two_budgets).
  static constexpr std::size_t kBudgets[5] = {92, 70, 130, 70, 70};
  /// bench_table3's default seed: every job replays the committed table's
  /// protocol, so the fronts are pinned whatever the benchmark seed.
  static constexpr std::uint64_t kTableSeed = 1;

  static const std::vector<std::vector<std::size_t>>& spaces() {
    static const std::vector<std::vector<std::size_t>> kSpaces = {
        tuner::kAreaDelay, tuner::kPowerDelay, tuner::kAreaPowerDelay};
    return kSpaces;
  }

  tuner::TuningResult run_method(std::size_t m,
                                 tuner::BenchmarkCandidatePool& pool,
                                 std::size_t s, Pass& pass) {
    const std::uint64_t seed = kTableSeed;
    switch (m) {
      case 0: {
        baselines::Tcad19Options opt;
        opt.max_runs = kBudgets[0];
        opt.seed = seed;
        return baselines::run_tcad19(pool, opt);
      }
      case 1: {
        baselines::Mlcad19Options opt;
        opt.budget = kBudgets[1];
        opt.seed = seed;
        return baselines::run_mlcad19(pool, opt);
      }
      case 2: {
        baselines::Dac19Options opt;
        opt.budget = kBudgets[2];
        opt.seed = seed;
        return baselines::run_dac19(pool, &sources_[s], opt);
      }
      case 3: {
        baselines::Aspdac20Options opt;
        opt.budget = kBudgets[3];
        opt.seed = seed;
        return baselines::run_aspdac20(pool, &sources_[s], opt);
      }
      default: {
        tuner::PPATunerOptions opt;
        opt.max_runs = kBudgets[4];
        opt.seed = seed;
        opt.num_threads = nproc();
        // Each job's first interval runs from the job's start.
        pass.updates.start(now_s());
        opt.on_round = [&pass](const tuner::PPATunerProgress&) {
          pass.updates.stamp(now_s());
        };
        auto factory = tuner::make_transfer_gp_factory(sources_[s]);
        if (args_.trace) factory = perfbench::traced_factory(factory);
        tuner::PPATunerDiagnostics diag;
        auto result = tuner::run_ppatuner(pool, factory, opt, &diag);
        pass.rounds += diag.rounds;
        pass.dropped += diag.dropped;
        pass.classified_pareto += diag.classified_pareto;
        return result;
      }
    }
  }

  flow::BenchmarkSet source_;
  flow::BenchmarkSet target_;
  std::vector<tuner::SourceData> sources_;
};

// ---- pool-cold -------------------------------------------------------------

class PoolCold final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::size_t) override {
    small_ = make_pdtool(false);
    large_ = make_pdtool(true);
  }
  void release() override {
    small_.reset();
    large_.reset();
  }

  Pass run(std::size_t k) override {
    const std::string dir = tmp("pool" + std::to_string(k));
    fs::create_directories(dir);
    Pass pass;
    std::vector<double> completions;
    auto small = [&]() -> std::unique_ptr<flow::QorOracle> {
      return std::make_unique<perfbench::TimedOracle>(*small_, "pdsim.small",
                                                      &completions);
    };
    auto large = [&]() -> std::unique_ptr<flow::QorOracle> {
      return std::make_unique<perfbench::TimedOracle>(*large_, "pdsim.large",
                                                      &completions);
    };
    pass.t0 = now_s();
    flow::BenchmarkSet src, tgt;
    {
      ScopedSpan span("flow.build");
      src = flow::build_or_load(dir, "source2", flow::source2_space(),
                                kSmallPoints, small, 2 * seed(k) + 1);
    }
    {
      ScopedSpan span("flow.build");
      tgt = flow::build_or_load(dir, "target2", flow::target2_space(),
                                kLargePoints, large, 2 * seed(k) + 2);
    }
    pass.t1 = now_s();
    pass.updates.start(pass.t0);
    for (double t : completions) pass.updates.stamp(t);
    pass.evals = src.size() + tgt.size();
    pass.attempted = kSmallPoints + kLargePoints;
    pass.failed = pass.attempted - pass.evals;
    pass.stats["pdsim.small.evals"] = static_cast<double>(src.size());
    pass.stats["pdsim.large.evals"] = static_cast<double>(tgt.size());

    // The cache the build wrote must read back bit for bit.
    const auto src_back = flow::load_benchmark_csv(dir + "/source2.csv",
                                                   "source2",
                                                   flow::source2_space());
    const auto tgt_back = flow::load_benchmark_csv(dir + "/target2.csv",
                                                   "target2",
                                                   flow::target2_space());
    expect(hash_set(0, src_back) == hash_set(0, src) &&
               hash_set(0, tgt_back) == hash_set(0, tgt),
           "pool-cold: CSV cache does not round-trip");
    pass.digest = hash_set(hash_set(0x504f4f4cu, src), tgt);
    fs::remove_all(dir);
    return pass;
  }

  /// Fixed committed rows re-run through the tool reproduce their QoR.
  void check() override {
    const auto source = flow::load_benchmark_csv(
        args_.data_dir + "/source2.csv", "source2", flow::source2_space());
    const auto target = flow::load_benchmark_csv(
        args_.data_dir + "/target2.csv", "target2", flow::target2_space());
    std::size_t ok = 0;
    for (std::size_t r = 0; r < 20; ++r) {
      const std::size_t i = r * source.size() / 20;
      ok += same_qor(small_->evaluate(source.space, source.configs[i]),
                     source.qor[i]);
    }
    for (std::size_t r = 0; r < 5; ++r) {
      const std::size_t i = r * target.size() / 5;
      ok += same_qor(large_->evaluate(target.space, target.configs[i]),
                     target.qor[i]);
    }
    expect(ok == 25, "pool-cold: " + std::to_string(ok) +
                         "/25 committed rows reproduced by PDTool");
  }

  double nominal_pass_s() const override { return 10.0; }

  std::map<std::string, double> config() const override {
    return {{"threads", 1},
            {"small_points", kSmallPoints},
            {"large_points", kLargePoints}};
  }

 private:
  static constexpr std::size_t kSmallPoints = 100;
  static constexpr std::size_t kLargePoints = 12;

  std::unique_ptr<flow::PDTool> small_;
  std::unique_ptr<flow::PDTool> large_;
};

// ---- live-target2 ----------------------------------------------------------

/// License-shared oracle over several PDTool instances: each concurrent
/// evaluate() takes an idle instance, so no two runs share one tool.
class ToolPool final : public flow::QorOracle {
 public:
  explicit ToolPool(const std::vector<std::unique_ptr<flow::PDTool>>& tools) {
    for (const auto& t : tools) {
      timed_.push_back(
          std::make_unique<perfbench::TimedOracle>(*t, "pdsim.large"));
      idle_.push_back(timed_.size() - 1);
    }
  }

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    std::size_t slot = 0;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return !idle_.empty(); });
      slot = idle_.back();
      idle_.pop_back();
    }
    struct Release {
      ToolPool* pool;
      std::size_t slot;
      ~Release() {
        {
          std::lock_guard lock(pool->mutex_);
          pool->idle_.push_back(slot);
        }
        pool->cv_.notify_one();
      }
    } release{this, slot};
    return timed_[slot]->evaluate(space, config);
  }
  std::size_t run_count() const override {
    std::size_t n = 0;
    for (const auto& t : timed_) n += t->run_count();
    return n;
  }

 private:
  std::vector<std::unique_ptr<perfbench::TimedOracle>> timed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> idle_;
};

class LiveTarget2 final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::size_t k) override {
    const auto source = flow::load_benchmark_csv(
        args_.data_dir + "/source2.csv", "source2", flow::source2_space());
    target_ = flow::load_benchmark_csv(args_.data_dir + "/target2.csv",
                                       "target2", flow::target2_space());
    source_data_ = tuner::SourceData::from_benchmark(
        source, tuner::kAreaPowerDelay, 200, seed(k) + 1);
    for (std::size_t i = 0; i < kLicenses; ++i) {
      tools_.push_back(make_pdtool(true));
    }
    server::SessionManagerOptions mopt;
    mopt.max_sessions = 1;
    mopt.total_licenses = kLicenses;
    mopt.handle_signals = false;
    manager_ = std::make_unique<server::SessionManager>(mopt);
  }
  void release() override {
    manager_.reset();
    tools_.clear();
  }

  Pass run(std::size_t k) override {
    const std::string dir = tmp("journal" + std::to_string(k));
    Pass pass;
    server::SessionConfig cfg;
    cfg.name = "live-target2";
    cfg.space = target_.space;
    cfg.candidates = target_.configs;
    cfg.objectives = tuner::kAreaPowerDelay;
    cfg.make_oracle = [this]() -> std::unique_ptr<flow::QorOracle> {
      return std::make_unique<ToolPool>(tools_);
    };
    cfg.surrogates = tuner::make_transfer_gp_factory(source_data_);
    cfg.tuner.batch_size = 4;
    cfg.tuner.max_runs = kRuns;
    cfg.tuner.seed = seed(k);
    tuner::PPATunerProgress last;
    cfg.tuner.on_round = [&last](const tuner::PPATunerProgress& p) {
      last = p;
    };
    cfg.eval.licenses = kLicenses;
    cfg.journal_dir = dir;
    cfg.worker_threads = nproc();
    double final_at = 0.0;
    cfg.on_update = [&pass, &final_at](const server::SessionUpdate& u) {
      if (u.final) {
        final_at = now_s();
      } else {
        pass.updates.stamp(now_s());
      }
    };
    flow::EvalServiceStats stats;
    bool have_stats = false;
    if (args_.trace) {
      cfg.surrogates = perfbench::traced_factory(cfg.surrogates);
      cfg.make_evaluator = [&stats, &have_stats](
                               std::uint64_t, flow::QorOracle& oracle,
                               const flow::ParameterSpace& space,
                               const flow::EvalServiceOptions& eval)
          -> std::unique_ptr<flow::BatchEvaluator> {
        auto service = std::make_unique<flow::EvalService>(oracle, space, eval);
        const flow::EvalService* raw = service.get();
        return std::make_unique<perfbench::TracedEvaluator>(
            std::move(service), [raw, &stats, &have_stats] {
              stats = raw->stats();
              have_stats = true;
            });
      };
    }

    pass.t0 = now_s();
    pass.updates.start(pass.t0);
    const std::uint64_t id = manager_->open(std::move(cfg));
    const tuner::TuningResult result = manager_->wait(id);
    pass.t1 = final_at;

    pass.evals = result.tool_runs;
    pass.failed = result.failed_runs;
    pass.attempted = result.tool_runs + result.failed_runs;
    pass.tool_runs = static_cast<double>(result.tool_runs);
    pass.rounds = manager_->status(id).rounds;
    pass.dropped = last.dropped;
    pass.classified_pareto = last.classified_pareto;
    if (have_stats) {
      pass.stats["eval.batches"] = static_cast<double>(stats.batches);
      pass.stats["eval.attempts"] = static_cast<double>(stats.attempts);
      pass.stats["eval.retries"] = static_cast<double>(stats.retries);
      pass.stats["eval.failed"] =
          static_cast<double>(stats.runs_failed + stats.runs_timed_out);
    }

    // Every reveal must equal its committed golden row bit for bit.
    tuner::BenchmarkCandidatePool golden(&target_, tuner::kAreaPowerDelay);
    const auto contents = journal::read_journal(dir);
    std::uint64_t selections = 0x53454c53u;
    std::vector<std::size_t> revealed;
    std::size_t mismatched = 0;
    for (const auto& e : contents.entries) {
      if (e.kind == journal::JournalEntry::Kind::kSelection) {
        for (std::uint64_t i : e.ids) selections = journal::mix_hash(selections, i);
      } else if (e.kind == journal::JournalEntry::Kind::kReveal &&
                 e.reveal.ok()) {
        const std::size_t i = e.reveal.id;
        const pareto::Point want = golden.golden(i);
        bool same = e.reveal.objectives.size() == want.size();
        for (std::size_t k = 0; same && k < want.size(); ++k) {
          same = same_bits(e.reveal.objectives[k], want[k]);
        }
        mismatched += same ? 0 : 1;
        revealed.push_back(i);
      }
    }
    expect(mismatched == 0, "live-target2: " + std::to_string(mismatched) +
                                " reveals differ from data/target2.csv");
    expect(revealed.size() == result.tool_runs,
           "live-target2: journal holds " + std::to_string(revealed.size()) +
               " reveals for " + std::to_string(result.tool_runs) + " runs");
    expect(!contents.truncated, "live-target2: journal truncated");
    std::uintmax_t bytes = 0;
    for (const auto& f : fs::directory_iterator(dir)) bytes += f.file_size();
    pass.stats["journal.bytes"] = static_cast<double>(bytes);
    pass.stats["journal.records"] =
        static_cast<double>(contents.entries.size());

    const auto q = tuner::evaluate_result(golden, result);
    pass.hv_error = q.hv_error;
    pass.adrs = q.adrs;
    score_reveals(golden, revealed, pass);
    pass.digest = hash_front(selections, result.pareto_indices,
                             result.tool_runs);
    fs::remove_all(dir);
    return pass;
  }

  // An instance takes ~11 s, but 20 s buy three: the round tail needs 40
  // intervals before p75 qualifies, and one instance yields ~15.
  double nominal_pass_s() const override { return 7.0; }

  std::map<std::string, double> config() const override {
    return {{"threads", static_cast<double>(nproc())},
            {"licenses", kLicenses},
            {"batch", 4},
            {"max_runs", kRuns},
            {"pool", static_cast<double>(target_.size())},
            {"source_points", 200}};
  }

 private:
  static constexpr std::size_t kLicenses = 4;
  static constexpr std::size_t kRuns = 70;

  flow::BenchmarkSet target_;
  tuner::SourceData source_data_;
  std::vector<std::unique_ptr<flow::PDTool>> tools_;
  std::unique_ptr<server::SessionManager> manager_;
};

// ---- fleet-hls -------------------------------------------------------------

class FleetHls final : public Workload {
 public:
  using Workload::Workload;

  void setup(std::size_t k) override {
    const std::uint64_t src_seed = 2 * seed(k) + 1;
    const std::uint64_t tgt_seed = 2 * seed(k) + 2;
    const auto source =
        hls::build_systolic_benchmark("hls_small", hls::small_gemm(),
                                      kSourcePoints, src_seed);
    target_ = hls::build_systolic_benchmark("hls_large", hls::large_gemm(),
                                            kPoolPoints, tgt_seed);
    source_data_ = tuner::SourceData::from_benchmark(
        source, tuner::kAreaPowerDelay, kSourcePoints, seed(k) + 1);

    ledger_path_ = tmp("ledger" + std::to_string(setups_++) + ".bin");
    dist::DistributedOptions dopt;
    dopt.socket_path = tmp("fleet.sock");
    dopt.ledger_path = ledger_path_;
    // --dim must match the space: the worker's default (3) gets every
    // worker rejected at the handshake.
    const double t0 = now_s();
    coord_ = std::make_unique<dist::DistributedEvalService>(target_.space, dopt);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      coord_->spawn_local_worker(
          args_.worker_bin,
          {"--oracle", "hls_large", "--seed", std::to_string(tgt_seed),
           "--dim", std::to_string(target_.space.size())});
    }
    if (!coord_->wait_for_workers(kWorkers, std::chrono::seconds(15))) {
      throw std::runtime_error(
          "fleet-hls: only " + std::to_string(coord_->worker_count()) +
          " of " + std::to_string(kWorkers) + " workers connected (" +
          std::to_string(coord_->stats().workers_rejected) + " rejected)");
    }
    spawn_s_ = now_s() - t0;
  }
  /// Stops the previous set-up's workers.
  void release() override { coord_.reset(); }

  Pass run(std::size_t k) override {
    if (coord_ == nullptr) throw std::logic_error("fleet-hls: not set up");
    Pass pass;
    std::unique_ptr<perfbench::TracedEvaluator> traced;
    flow::BatchEvaluator* evaluator = coord_.get();
    if (args_.trace) {
      traced = std::make_unique<perfbench::TracedEvaluator>(*coord_);
      evaluator = traced.get();
    }
    tuner::LiveCandidatePool pool(target_.configs, tuner::kAreaPowerDelay,
                                  *evaluator);
    tuner::PPATunerOptions opt;
    opt.batch_size = 8;
    opt.max_runs = kRuns;
    opt.seed = seed(k);
    opt.num_threads = nproc();
    opt.on_round = [&pass](const tuner::PPATunerProgress&) {
      pass.updates.stamp(now_s());
    };
    auto factory =
        tuner::default_transfer_gp_factory_for(target_.space, source_data_);
    if (args_.trace) factory = perfbench::traced_factory(factory);
    tuner::PPATunerDiagnostics diag;
    pass.t0 = now_s();
    pass.updates.start(pass.t0);
    const tuner::TuningResult result =
        tuner::run_ppatuner(pool, factory, opt, &diag);
    pass.t1 = now_s();

    const dist::DistributedStats st = coord_->stats();
    pass.evals = result.tool_runs;
    pass.attempted = st.runs_ok + st.runs_failed + st.runs_timed_out;
    pass.failed = st.runs_failed + st.runs_timed_out;
    pass.tool_runs = static_cast<double>(result.tool_runs);
    pass.rounds = diag.rounds;
    pass.dropped = diag.dropped;
    pass.classified_pareto = diag.classified_pareto;
    pass.stats["eval.batches"] = static_cast<double>(st.batches);
    pass.stats["eval.attempts"] = static_cast<double>(st.attempts);
    pass.stats["eval.retries"] = static_cast<double>(st.retries);
    pass.stats["eval.failed"] = static_cast<double>(pass.failed);
    pass.stats["dist.worker_deaths"] = static_cast<double>(st.worker_deaths);
    pass.stats["dist.heartbeats"] = static_cast<double>(st.heartbeats);
    pass.stats["dist.spawn_s"] = spawn_s_;
    expect(result.failed_runs == 0 && pass.failed == 0,
           "fleet-hls: " + std::to_string(pass.failed) + " evaluations failed");
    expect(st.workers_rejected == 0, "fleet-hls: workers rejected");

    // Every reveal must equal the in-process hls_large oracle.
    std::vector<std::size_t> revealed;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!pool.is_revealed(i)) continue;
      revealed.push_back(i);
      mismatched += same_qor(pool.record(i)->qor, target_.qor[i]) ? 0 : 1;
    }
    expect(mismatched == 0, "fleet-hls: " + std::to_string(mismatched) +
                                " reveals differ from the in-process oracle");
    tuner::BenchmarkCandidatePool golden(&target_, tuner::kAreaPowerDelay);
    const auto q = tuner::evaluate_result(golden, result);
    pass.hv_error = q.hv_error;
    pass.adrs = q.adrs;
    score_reveals(golden, revealed, pass);
    pass.digest = hash_front(0x464c4545u, result.pareto_indices,
                             result.tool_runs);

    // The ledger is read back once its coordinator (and fleet) is gone.
    traced.reset();
    coord_.reset();
    const auto ledger = journal::RevealLedger::open(ledger_path_);
    pass.stats["ledger.records"] = static_cast<double>(ledger->size());
    pass.stats["ledger.bytes"] =
        static_cast<double>(fs::file_size(ledger_path_));
    fs::remove(ledger_path_);
    expect(ledger->size() == result.tool_runs,
           "fleet-hls: ledger holds " + std::to_string(ledger->size()) +
               " outcomes for " + std::to_string(result.tool_runs) + " runs");
    return pass;
  }

  double nominal_pass_s() const override { return 5.0; }

  std::map<std::string, double> config() const override {
    return {{"threads", static_cast<double>(nproc())},
            {"workers", kWorkers},
            {"batch", 8},
            {"max_runs", kRuns},
            {"pool", kPoolPoints},
            {"source_points", kSourcePoints},
            {"dim", static_cast<double>(target_.space.size())}};
  }

 private:
  static constexpr std::size_t kWorkers = 4;
  static constexpr std::size_t kRuns = 160;
  static constexpr std::size_t kPoolPoints = 2000;
  static constexpr std::size_t kSourcePoints = 300;

  flow::BenchmarkSet target_;
  tuner::SourceData source_data_;
  std::unique_ptr<dist::DistributedEvalService> coord_;
  std::string ledger_path_;
  std::size_t setups_ = 0;
  double spawn_s_ = 0.0;
};

// ---- output ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_obj(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + json_num(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_num(v[i]);
  }
  return out + "]";
}

void write_output(const Args& args, const Workload& w,
                  const std::vector<double>& setups,
                  const std::vector<Pass>& passes) {
  std::ostringstream os;
  char hex[32];
  os << "{\"workload\": " << json_str(args.workload)
     << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << nproc()
     << ", \"compiler\": " << json_str(__VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_str(PERFBENCH_CXX_FLAGS)
     << ", \"config\": " << json_obj(w.config())
     << ", \"setup_s\": " << json_list(setups) << ", \"passes\": [";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& r = passes[p];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    os << (p > 0 ? ", " : "") << "{\"t0\": " << json_num(r.t0)
       << ", \"t1\": " << json_num(r.t1) << ", \"evals\": " << r.evals
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"update_ms\": " << json_list(r.updates.intervals_ms)
       << ", \"digest\": \"" << hex << "\""
       << ", \"hv_error\": " << json_num(r.hv_error)
       << ", \"adrs\": " << json_num(r.adrs)
       << ", \"tool_runs\": " << json_num(r.tool_runs)
       << ", \"rounds\": " << r.rounds << ", \"dropped\": " << r.dropped
       << ", \"classified_pareto\": " << r.classified_pareto
       << ", \"revealed_on_front\": " << r.revealed_on_front
       << ", \"revealed\": " << r.revealed
       << ", \"stats\": " << json_obj(r.stats) << "}";
  }
  os << "], \"failures\": [";
  for (std::size_t i = 0; i < w.failures.size(); ++i) {
    os << (i > 0 ? ", " : "") << json_str(w.failures[i]);
  }
  // CPU and context switches include the reaped fleet workers; peak RSS is
  // this process's own.
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  auto secs = [](const timeval& a, const timeval& b) {
    return static_cast<double>(a.tv_sec + b.tv_sec) +
           1e-6 * static_cast<double>(a.tv_usec + b.tv_usec);
  };
  const std::map<std::string, double> usage = {
      {"maxrss_kb", static_cast<double>(self.ru_maxrss)},
      {"user_s", secs(self.ru_utime, children.ru_utime)},
      {"sys_s", secs(self.ru_stime, children.ru_stime)},
      {"ctx_switches",
       static_cast<double>(self.ru_nvcsw + self.ru_nivcsw +
                           children.ru_nvcsw + children.ru_nivcsw)}};
  os << "], \"rusage\": " << json_obj(usage)
     << ", \"counters\": " << json_obj(Trace::get().counters())
     << ", \"spans\": [";
  const auto spans = Trace::get().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i > 0 ? ", " : "") << "[" << json_str(s.name) << ", "
       << json_num(s.start) << ", " << json_num(s.end) << ", " << s.id << ", "
       << s.parent << "]";
  }
  os << "]}\n";
  std::ofstream out(args.out_path, std::ios::trunc);
  out << os.str();
  out.close();
  if (!out) throw std::runtime_error("cannot write " + args.out_path);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--data") a.data_dir = v;
    else if (flag == "--tmp") a.tmp_dir = v;
    else if (flag == "--worker") a.worker_bin = v;
    else if (flag == "--out") a.out_path = v;
    else throw std::invalid_argument("unknown option " + flag);
  }
  if (a.tmp_dir.empty() || a.out_path.empty()) {
    throw std::invalid_argument("--tmp and --out are required");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "replay-target2") return std::make_unique<ReplayTarget2>(a);
  if (a.workload == "pool-cold") return std::make_unique<PoolCold>(a);
  if (a.workload == "live-target2") return std::make_unique<LiveTarget2>(a);
  if (a.workload == "fleet-hls") return std::make_unique<FleetHls>(a);
  throw std::invalid_argument("unknown workload " + a.workload);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.trace) Trace::get().enable();
    now_s();
    fs::create_directories(args.tmp_dir);
    auto workload = make_workload(args);

    // A run measures a fixed number of instances, each with its own inputs,
    // sized from --seconds and the workload's nominal pass length (never
    // from the measured speed, so every build measures the same work).
    const std::size_t instances = static_cast<std::size_t>(std::max(
        1.0, std::round(args.seconds / workload->nominal_pass_s())));
    // Set-up is cheap next to a pass, so instance 0 is set up until the
    // median rests on enough samples: at least 5, and 1 s in all (at most
    // 30). A first, untimed set-up pays the process's one-time costs (code
    // pages, the shared cell library). Every later instance adds its own
    // set-up. Tearing down the previous set-up is not timed.
    std::vector<double> setups;
    double setup_total = 0.0;
    auto timed_setup = [&](std::size_t k) {
      workload->release();
      const double t0 = now_s();
      workload->setup(k);
      setups.push_back(now_s() - t0);
      setup_total += setups.back();
    };
    workload->setup(0);
    while (setups.size() < 5 || (setup_total < 1.0 && setups.size() < 30)) {
      timed_setup(0);
    }
    std::vector<Pass> passes;
    for (std::size_t k = 0; k < instances; ++k) {
      if (k > 0) timed_setup(k);
      passes.push_back(workload->run(k));
    }
    workload->check();
    write_output(args, *workload, setups, passes);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
