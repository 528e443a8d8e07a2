// Command-line tuning driver: run PPATuner (or a baseline comparison)
// against benchmark tables you already have on disk — the workflow of a
// team that has collected tool-run histories as CSVs and wants Pareto
// configurations for a new task without writing any C++.
//
//   tune_from_csv --source data/source2.csv --target data/target2.csv
//                 --spaces source2,target2 --objectives power,delay
//                 --budget 70 --seed 1 [--out front.csv] [--compare]
//
// (one command line, wrapped here).
//
// The CSV format is the one save_benchmark_csv writes (parameter columns in
// schema order, then area_um2, power_mw, delay_ns). --spaces names the two
// Table-1 schemas to validate against (source1|target1|source2|target2).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "baselines/tcad19.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "flow/benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace {

using namespace ppat;

flow::ParameterSpace space_by_name(const std::string& name) {
  if (name == "source1") return flow::source1_space();
  if (name == "target1") return flow::target1_space();
  if (name == "source2") return flow::source2_space();
  if (name == "target2") return flow::target2_space();
  throw std::invalid_argument("unknown space name: " + name);
}

std::vector<std::size_t> objectives_from(const std::string& list) {
  std::vector<std::size_t> objs;
  std::string cur;
  auto flush = [&] {
    if (cur.empty()) return;
    if (cur == "area") objs.push_back(0);
    else if (cur == "power") objs.push_back(1);
    else if (cur == "delay") objs.push_back(2);
    else throw std::invalid_argument("unknown objective: " + cur);
    cur.clear();
  };
  for (char c : list) {
    if (c == ',') flush();
    else cur.push_back(c);
  }
  flush();
  if (objs.empty()) throw std::invalid_argument("no objectives given");
  return objs;
}

int usage() {
  std::fputs(
      "usage: tune_from_csv --source S.csv --target T.csv\n"
      "                     --spaces <srcname>,<tgtname>\n"
      "                     [--objectives power,delay] [--budget 70]\n"
      "                     [--seed 1] [--out front.csv] [--compare]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) {
      compare = true;
    } else if (argv[i][0] == '-' && i + 1 < argc) {
      const std::string key = argv[i];
      args[key] = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.count("--source") == 0 || args.count("--target") == 0 ||
      args.count("--spaces") == 0) {
    return usage();
  }

  try {
    const std::string spaces = args["--spaces"];
    const auto comma = spaces.find(',');
    if (comma == std::string::npos) return usage();
    const auto src_space = space_by_name(spaces.substr(0, comma));
    const auto tgt_space = space_by_name(spaces.substr(comma + 1));

    const auto source = flow::load_benchmark_csv(args["--source"], "source",
                                                 src_space);
    const auto target = flow::load_benchmark_csv(args["--target"], "target",
                                                 tgt_space);
    const auto objectives = objectives_from(
        args.count("--objectives") ? args["--objectives"] : "power,delay");
    const std::size_t budget =
        args.count("--budget") ? std::stoul(args["--budget"]) : 70;
    const std::uint64_t seed =
        args.count("--seed") ? std::stoull(args["--seed"]) : 1;

    const auto source_data =
        tuner::SourceData::from_benchmark(source, objectives, 200, seed + 1);

    tuner::BenchmarkCandidatePool pool(&target, objectives);
    tuner::PPATunerOptions opt;
    opt.max_runs = budget;
    opt.seed = seed;
    tuner::PPATunerDiagnostics diag;
    const auto result = tuner::run_ppatuner(
        pool, tuner::make_transfer_gp_factory(source_data), opt, &diag);
    const auto quality = tuner::evaluate_result(pool, result);

    std::printf("PPATuner: %zu tool runs, HV error %.4f, ADRS %.4f, "
                "%zu Pareto configurations\n",
                quality.runs, quality.hv_error, quality.adrs,
                result.pareto_indices.size());

    if (compare) {
      tuner::BenchmarkCandidatePool ref_pool(&target, objectives);
      baselines::Tcad19Options ref;
      ref.max_runs = budget + budget / 3;
      ref.seed = seed;
      const auto ref_q =
          evaluate_result(ref_pool, baselines::run_tcad19(ref_pool, ref));
      std::printf("TCAD'19 reference (+33%% budget): %zu runs, "
                  "HV error %.4f, ADRS %.4f\n",
                  ref_q.runs, ref_q.hv_error, ref_q.adrs);
    }

    // Emit the front: parameter columns + objective values.
    common::CsvTable out;
    for (const auto& spec : tgt_space.specs()) out.header.push_back(spec.name);
    for (std::size_t k : objectives) {
      out.header.push_back(flow::QoR::metric_name(k));
    }
    for (std::size_t idx : result.pareto_indices) {
      std::vector<std::string> row;
      for (std::size_t p = 0; p < tgt_space.size(); ++p) {
        row.push_back(tgt_space.format_value(p, target.configs[idx][p]));
      }
      const auto golden = pool.golden(idx);
      for (double v : golden) row.push_back(common::fmt_fixed(v, 4));
      out.rows.push_back(std::move(row));
    }
    if (args.count("--out")) {
      common::write_csv_file(args["--out"], out);
      std::printf("front written to %s\n", args["--out"].c_str());
    } else {
      std::fputs(common::to_csv(out).c_str(), stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
