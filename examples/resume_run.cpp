// Crash-safe tuning with the durable run journal: every selection, reveal
// outcome, RNG state, and uncertainty-region digest is written to a
// write-ahead log as the loop runs, so a run killed at ANY point — Ctrl-C,
// SIGTERM from a scheduler, OOM kill, power loss — resumes from the journal
// and continues bit-identically to an uninterrupted run.
//
//   resume_run <journal-dir> [--stop-after-rounds N]
//
// First invocation creates the journal and starts tuning; run it again with
// the same directory to resume. --stop-after-rounds simulates an
// interruption by requesting a graceful stop mid-run (the same mechanism
// the SIGINT/SIGTERM handlers use), so the full crash/resume cycle can be
// tried without killing anything:
//
//   resume_run /tmp/demo.journal --stop-after-rounds 3   # partial run
//   resume_run /tmp/demo.journal                         # resumes, finishes
//
// A SIGKILL mid-run works too (see tests/test_crash_resume.cpp, which
// proves the resumed Pareto front is bitwise-identical); SIGINT/SIGTERM
// additionally drain the in-flight batch so no completed tool run is lost.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "flow/eval_service.hpp"
#include "journal/journal.hpp"
#include "sample/sampling.hpp"
#include "tuner/live_pool.hpp"
#include "tuner/ppatuner.hpp"

namespace {

using namespace ppat;

/// A mock place-and-route tool: three knobs trade off area/power/delay.
/// Deterministic, so resumed runs see the same QoR a real re-run would.
class MockPdTool final : public flow::QorOracle {
 public:
  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    ++runs_;
    const double effort = space.value_or(config, "effort", 0.5);
    const double density = space.value_or(config, "target_density", 0.7);
    const double slack = space.value_or(config, "clock_margin", 0.1);

    flow::QoR q;
    q.area_um2 = 40000.0 * (1.2 - 0.3 * density) + 5000.0 * effort;
    q.power_mw = 12.0 + 8.0 * effort + 6.0 * density * density;
    q.delay_ns = 2.4 - 1.1 * effort + 0.9 * slack * density;
    return q;
  }
  std::size_t run_count() const override { return runs_; }

 private:
  std::size_t runs_ = 0;
};

flow::ParameterSpace pd_space() {
  return flow::ParameterSpace({
      flow::ParamSpec::real("effort", 0.0, 1.0),
      flow::ParamSpec::real("target_density", 0.5, 0.95),
      flow::ParamSpec::real("clock_margin", 0.0, 0.3),
  });
}

bool journal_exists(const std::string& dir) {
  const auto contents = [&] {
    try {
      return journal::read_journal(dir).segments;
    } catch (const journal::JournalError&) {
      return std::size_t{0};
    }
  }();
  return contents > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: resume_run <journal-dir> [--stop-after-rounds N]\n");
    return 2;
  }
  const std::string dir = argv[1];
  long stop_after = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--stop-after-rounds") == 0) {
      stop_after = std::strtol(argv[i + 1], nullptr, 10);
    }
  }

  const auto space = pd_space();
  MockPdTool tool;
  flow::EvalServiceOptions eopt;
  eopt.licenses = 4;
  // Hung-run watchdog: cancel any run exceeding 8x the rolling median
  // wall-clock (a real tool wrapper implements CancellableOracle to honor
  // the cancel token; the mock never hangs, so this is configuration only).
  eopt.watchdog_multiple = 8.0;
  flow::EvalService service(tool, space, eopt);

  common::Rng rng(2);
  std::vector<flow::Config> candidates;
  for (const auto& u : sample::latin_hypercube(400, space.size(), rng)) {
    candidates.push_back(space.decode(u));
  }
  tuner::LiveCandidatePool pool(candidates, tuner::kAreaPowerDelay, service);

  // Open the journal: fresh directory -> new run; existing journal ->
  // resume (replays the recorded reveals without re-running the tool, then
  // continues live).
  const bool resuming = journal_exists(dir);
  auto jnl = resuming ? journal::RunJournal::open_resume(dir)
                      : journal::RunJournal::create(dir);
  std::printf("%s journal at %s\n",
              resuming ? "resuming from" : "recording a new", dir.c_str());

  // Ctrl-C / SIGTERM request a graceful stop: the loop drains the in-flight
  // batch, commits the journal, and returns — nothing is lost.
  journal::install_graceful_shutdown_handlers();
  long rounds_seen = 0;
  tuner::PPATunerOptions options;
  options.max_runs = 120;
  options.batch_size = eopt.licenses;
  options.seed = 3;
  options.journal = jnl.get();  // each outcome is journaled as its run ends
  options.on_round = [&rounds_seen](const tuner::PPATunerProgress& p) {
    ++rounds_seen;
    std::printf("round %zu: %zu runs, %zu dropped, %zu pareto, %zu open\n",
                p.round, p.runs, p.dropped, p.classified_pareto, p.undecided);
  };
  options.should_stop = [&] {
    return journal::shutdown_requested() ||
           (stop_after > 0 && rounds_seen >= stop_after);
  };

  tuner::PPATunerDiagnostics diag;
  const auto result = tuner::run_ppatuner(
      pool, tuner::make_plain_gp_factory(), options, &diag);

  if (diag.replayed_reveals > 0) {
    std::printf("replayed %zu reveals from the journal (no tool time)\n",
                diag.replayed_reveals);
  }
  if (diag.stopped_early) {
    std::printf("stopped early after %zu rounds; run again with the same "
                "journal directory to continue\n",
                diag.rounds);
    return 0;
  }
  std::printf("done: %zu tool runs, %zu Pareto configurations\n",
              result.tool_runs, result.pareto_indices.size());
  for (std::size_t idx : result.pareto_indices) {
    const auto& c = pool.config(idx);
    std::printf("  effort=%.2f density=%.2f margin=%.2f\n", c[0], c[1], c[2]);
  }
  return 0;
}
