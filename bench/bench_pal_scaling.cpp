// PAL decision-loop scaling: times run_ppatuner's per-round cost on
// candidate pools of 10^3 .. 10^5 configurations. Every run is
// fingerprinted (per-round status counts + final Pareto indices + run
// accounting). The 10^3 and 10^4 synthetic runs, the round-capped 10^5 run
// and the paper's cached Source2 -> Target2 replay at license counts (batch
// sizes) 1/4/16 are checked against golden fingerprints, recorded while the
// pairwise / uncached legacy decision loop still existed and agreed with
// the production loop bit for bit; the bench exits non-zero on any
// mismatch.
//
// Scaling runs use a synthetic analytic benchmark (building a 10^5-point
// golden table through the bundled PD flow would dominate the bench).
//
// Emits BENCH_pal.json (locale-independent; see bench_json.hpp) and a
// summary table on stdout. `--smoke` runs only the 10^3 synthetic and
// Target2 golden checks and the journal-overhead run (CI regression gate).
// A full run also exits non-zero when the journal's overhead at 10^4
// exceeds its 2% budget.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/rng.hpp"
#include "flow/benchmark.hpp"
#include "journal/journal.hpp"
#include "sample/sampling.hpp"
#include "tuner/ppatuner.hpp"
#include "tuner/problem.hpp"
#include "tuner/surrogate.hpp"

namespace {

using namespace ppat;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// ---- Synthetic pools -----------------------------------------------------

flow::ParameterSpace pal_space() {
  return flow::ParameterSpace({
      flow::ParamSpec::real("u0", 0.0, 1.0),
      flow::ParamSpec::real("u1", 0.0, 1.0),
      flow::ParamSpec::real("u2", 0.0, 1.0),
  });
}

/// Analytic QoR with a genuine three-way trade-off (area falls with u0,
/// power rises with u0 and falls with u1, delay rises with u1), so the
/// 2-objective and 3-objective fronts are all non-trivial. `shift`
/// perturbs the surface into a correlated source task.
flow::QoR pal_qor(const linalg::Vector& u, double shift) {
  flow::QoR q;
  const double u0 = u[0], u1 = u[1], u2 = u[2];
  q.area_um2 = 120.0 * (1.4 - u0 + 0.25 * std::sin(3.0 * u1) + shift * u2);
  q.power_mw = 12.0 * (1.0 + 0.7 * u0 - 0.5 * u1 + 0.15 * u2 +
                       shift * 0.25 * std::cos(2.0 * u0));
  q.delay_ns = 1.0 + 0.9 * u1 + 0.2 * std::sin(4.0 * u0) + shift * 0.1 * u2;
  return q;
}

flow::BenchmarkSet pal_benchmark(const std::string& name, std::size_t n,
                                 std::uint64_t seed, double shift) {
  flow::BenchmarkSet set;
  set.name = name;
  set.space = pal_space();
  common::Rng rng(seed);
  const auto points = sample::latin_hypercube(n, set.space.size(), rng);
  set.configs.reserve(n);
  set.qor.reserve(n);
  for (const auto& u : points) {
    set.configs.push_back(set.space.decode(u));
    set.qor.push_back(pal_qor(set.space.encode(set.configs.back()), shift));
  }
  return set;
}

// ---- Behavioral fingerprint ----------------------------------------------

// Recorded with both the production and the legacy decision loop (they
// agreed); any change here is a behavior change of the tuner.
constexpr std::uint64_t kGoldenSynthetic1k = 0x67aabcf58af89103ULL;
constexpr std::uint64_t kGoldenSynthetic10k = 0x5720fc573670b2e4ULL;
constexpr std::uint64_t kGoldenSynthetic100kCapped = 0x7d661df09d696d9eULL;
constexpr std::uint64_t kGoldenTarget2Batch1 = 0xc87cad2a4553759bULL;
constexpr std::uint64_t kGoldenTarget2Batch4 = 0x9b3429ed51a68676ULL;
constexpr std::uint64_t kGoldenTarget2Batch16 = 0x321210ce346045fdULL;

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
};

// ---- One tuner run -------------------------------------------------------

struct RunOutcome {
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;
  /// Mean latency of rounds >= 2 excluding refit rounds: steady-state
  /// decision-loop cost. Round 1 amortizes the posterior-cache build and is
  /// reported via wall_s instead.
  double steady_round_s = 0.0;
  /// Mean wall-clock spent inside RunJournal calls per steady round (same
  /// round filter as steady_round_s; 0 when no journal is attached).
  double steady_journal_s = 0.0;
  std::size_t rounds = 0;
};

RunOutcome run_once(const flow::BenchmarkSet& target,
                    const tuner::SourceData& source_data,
                    const std::vector<std::size_t>& objectives,
                    tuner::PPATunerOptions options) {
  tuner::BenchmarkCandidatePool pool(&target, objectives);
  auto factory = tuner::make_transfer_gp_factory(source_data);

  Fnv1a fp;
  std::vector<double> round_ts;
  std::vector<double> journal_ts;
  std::vector<std::size_t> round_nums;
  options.on_round = [&](const tuner::PPATunerProgress& p) {
    fp.mix(p.round);
    fp.mix(p.runs);
    fp.mix(p.dropped);
    fp.mix(p.classified_pareto);
    fp.mix(p.undecided);
    round_ts.push_back(now_seconds());
    journal_ts.push_back(options.journal ? options.journal->write_seconds()
                                         : 0.0);
    round_nums.push_back(p.round);
  };

  const double t0 = now_seconds();
  const tuner::TuningResult result = run_ppatuner(pool, factory, options);
  RunOutcome out;
  out.wall_s = now_seconds() - t0;
  out.rounds = round_nums.empty() ? 0 : round_nums.back();

  fp.mix(result.pareto_indices.size());
  for (std::size_t i : result.pareto_indices) fp.mix(i);
  fp.mix(result.tool_runs);
  fp.mix(result.failed_runs);
  out.fingerprint = fp.h;

  double steady = 0.0;
  double steady_journal = 0.0;
  std::size_t steady_n = 0;
  for (std::size_t r = 1; r < round_ts.size(); ++r) {
    if (round_nums[r] % options.refit_every == 0) continue;  // refit round
    steady += round_ts[r] - round_ts[r - 1];
    steady_journal += journal_ts[r] - journal_ts[r - 1];
    ++steady_n;
  }
  out.steady_round_s = steady_n > 0
                           ? steady / static_cast<double>(steady_n)
                           : out.wall_s / std::max<std::size_t>(1, out.rounds);
  out.steady_journal_s =
      steady_n > 0 ? steady_journal / static_cast<double>(steady_n) : 0.0;
  return out;
}

// ---- Reporting -----------------------------------------------------------

struct Entry {
  std::string pool;
  std::string mode;  // "full" | "capped" | "journal"
  std::size_t n = 0;
  std::size_t batch = 0;
  RunOutcome run;
  /// Expected fingerprint: a golden constant, or for "journal" the
  /// unjournaled run's. Entries without one are timing-only.
  std::optional<std::uint64_t> expected;
  bool match() const { return !expected || run.fingerprint == *expected; }
  /// Durable-run-journal cost as a fraction of steady per-round wall-clock:
  /// RunJournal::write_seconds() per round over the journaled run's round
  /// time ("journal" mode only; < 0 elsewhere). Acceptance budget: <= 2%
  /// at N = 10^4.
  double journal_overhead = -1.0;
};

void write_json(const std::vector<Entry>& entries, bool smoke,
                const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"smoke\": %s,\n  \"results\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"pool\": \"%s\", \"mode\": \"%s\", \"n\": %zu, "
                 "\"batch\": %zu, \"rounds\": %zu, \"wall_s\": %s, "
                 "\"steady_round_s\": %s, \"fingerprint\": \"0x%016llx\"",
                 e.pool.c_str(), e.mode.c_str(), e.n, e.batch, e.run.rounds,
                 bench::json_double(e.run.wall_s, 6).c_str(),
                 bench::json_double(e.run.steady_round_s, 6).c_str(),
                 static_cast<unsigned long long>(e.run.fingerprint));
    if (e.journal_overhead >= 0.0) {
      std::fprintf(f, ", \"journal_overhead_pct\": %s",
                   bench::json_double(100.0 * e.journal_overhead, 4).c_str());
    }
    if (e.expected) {
      std::fprintf(f, ", \"fingerprint_match\": %s",
                   e.match() ? "true" : "false");
    }
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void print_entry(const Entry& e) {
  std::printf("%-10s %-8s %7zu %5zu %7zu  %9.3fs  %8.2fms  0x%016llx  %s\n",
              e.pool.c_str(), e.mode.c_str(), e.n, e.batch, e.run.rounds,
              e.run.wall_s, 1e3 * e.run.steady_round_s,
              static_cast<unsigned long long>(e.run.fingerprint),
              !e.expected ? "-" : e.match() ? "match" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::vector<Entry> entries;

  // Shared synthetic source task (SourceData subsamples to 200 points).
  const auto source_set = pal_benchmark("pal_source", 600, 7, 0.35);
  const auto source_data = tuner::SourceData::from_benchmark(
      source_set, tuner::kAreaPowerDelay, 200, 11);

  tuner::PPATunerOptions base;
  base.batch_size = 8;
  base.min_init = 20;
  base.init_fraction = 0.0;
  base.refit_every = 5;
  base.max_runs = 60;
  base.max_rounds = 30;
  base.seed = 42;

  auto run = [&](const flow::BenchmarkSet& target,
                 const tuner::SourceData& src,
                 const tuner::PPATunerOptions& opt, const char* pool,
                 const char* mode, std::optional<std::uint64_t> expected) {
    Entry e;
    e.pool = pool;
    e.mode = mode;
    e.n = target.size();
    e.batch = opt.batch_size;
    e.run = run_once(target, src, tuner::kAreaPowerDelay, opt);
    e.expected = expected;
    entries.push_back(e);
    print_entry(entries.back());
  };

  std::printf("%-10s %-8s %7s %5s %7s  %10s  %10s  %-18s  %s\n", "pool",
              "mode", "n", "batch", "rounds", "wall", "round", "fingerprint",
              "check");

  {
    const auto target = pal_benchmark("pal_target_1k", 1000, 21, 0.0);
    run(target, source_data, base, "synthetic", "full", kGoldenSynthetic1k);
  }
  if (!smoke) {
    {
      const auto target = pal_benchmark("pal_target_10k", 10000, 22, 0.0);
      run(target, source_data, base, "synthetic", "full",
          kGoldenSynthetic10k);
    }
    {
      const auto target = pal_benchmark("pal_target_100k", 100000, 23, 0.0);
      // A few rounds with refits pushed out of the window, so the per-round
      // numbers are about the decision loop itself; then the full run.
      tuner::PPATunerOptions capped = base;
      capped.max_rounds = 4;
      capped.refit_every = 1000;
      run(target, source_data, capped, "synthetic", "capped",
          kGoldenSynthetic100kCapped);
      run(target, source_data, base, "synthetic", "full", std::nullopt);
    }
  }

  // Paper benchmark at license counts 1/4/16 (Source2 -> Target2, cached
  // CSVs). Small pool — this sweep pins behavior on real data, not speed.
  {
    const auto src2 = bench::load_paper_benchmark("source2");
    const auto tgt2 = bench::load_paper_benchmark("target2");
    const auto src2_data = tuner::SourceData::from_benchmark(
        src2, tuner::kAreaPowerDelay, 200, 11);
    const std::pair<std::size_t, std::uint64_t> golden[] = {
        {1, kGoldenTarget2Batch1},
        {4, kGoldenTarget2Batch4},
        {16, kGoldenTarget2Batch16}};
    for (const auto& [batch, fingerprint] : golden) {
      tuner::PPATunerOptions opt;
      opt.batch_size = batch;
      opt.max_runs = 80;
      opt.max_rounds = 40;
      opt.refit_every = 5;
      opt.seed = 42;
      run(tgt2, src2_data, opt, "target2", "full", fingerprint);
    }
  }

  // Durable-journal overhead: the identical run with and without a
  // RunJournal (fsync-per-commit on, as in production). Acceptance budget:
  // <= 2% of steady per-round wall-clock at N = 10^4, gated in full mode;
  // smoke mode measures at 10^3 and gates only the bit-identical
  // fingerprint.
  constexpr double kJournalBudget = 0.02;
  double journal_overhead = 0.0;
  {
    const std::size_t n = smoke ? 1000 : 10000;
    const auto target = pal_benchmark("pal_target_journal", n, 22, 0.0);
    const RunOutcome unjournaled =
        run_once(target, source_data, tuner::kAreaPowerDelay, base);
    const std::string dir = "bench_pal_journal.journal";
    std::filesystem::remove_all(dir);
    auto jnl = journal::RunJournal::create(dir);
    auto journaled = base;
    journaled.journal = jnl.get();
    Entry e;
    e.pool = "synthetic";
    e.mode = "journal";
    e.n = n;
    e.batch = base.batch_size;
    e.run = run_once(target, source_data, tuner::kAreaPowerDelay, journaled);
    e.expected = unjournaled.fingerprint;
    jnl.reset();
    std::filesystem::remove_all(dir);
    // The journal's per-round cost (~one fsync + a few hundred bytes of
    // buffered appends) is far smaller than run-to-run scheduling noise, so
    // differencing two end-to-end timings cannot resolve it. Instead report
    // the time actually spent inside journal calls — encode + write +
    // fsync, accumulated by the journal itself — per steady round, as a
    // fraction of the journaled run's steady per-round wall-clock.
    e.journal_overhead = e.run.steady_journal_s / e.run.steady_round_s;
    entries.push_back(e);
    print_entry(entries.back());
    journal_overhead = e.journal_overhead;
    std::printf("journal overhead: %.2f%% of steady round (%s)\n",
                100.0 * journal_overhead,
                smoke ? "not gated in --smoke: the 2% budget applies at "
                        "n = 10000"
                      : "budget 2%");
  }

  write_json(entries, smoke, "BENCH_pal.json");
  for (const Entry& e : entries) {
    if (!e.match()) {
      std::fprintf(stderr,
                   "FINGERPRINT MISMATCH: %s %s n=%zu batch=%zu diverged "
                   "from its expected fingerprint\n",
                   e.pool.c_str(), e.mode.c_str(), e.n, e.batch);
      return 1;
    }
  }
  std::printf("all fingerprints match\n");
  if (!smoke && journal_overhead > kJournalBudget) {
    std::fprintf(stderr,
                 "JOURNAL OVERHEAD %.2f%% of steady round exceeds its 2%% "
                 "budget at n = 10000\n",
                 100.0 * journal_overhead);
    return 1;
  }
  return 0;
}
