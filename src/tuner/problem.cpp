#include "tuner/problem.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace ppat::tuner {

const char* objective_space_name(const std::vector<std::size_t>& objectives) {
  if (objectives == kAreaDelay) return "Area-Delay";
  if (objectives == kPowerDelay) return "Power-Delay";
  if (objectives == kAreaPowerDelay) return "Area-Power-Delay";
  return "custom";
}

BenchmarkCandidatePool::BenchmarkCandidatePool(
    const flow::BenchmarkSet* benchmark, std::vector<std::size_t> objectives)
    : benchmark_(benchmark), objectives_(std::move(objectives)) {
  if (benchmark_ == nullptr || benchmark_->size() == 0) {
    throw std::invalid_argument("BenchmarkCandidatePool: empty benchmark");
  }
  if (objectives_.empty()) {
    throw std::invalid_argument(
        "BenchmarkCandidatePool: no objectives selected");
  }
  encoded_ = benchmark_->encoded_configs();
  revealed_.assign(encoded_.size(), false);
}

pareto::Point BenchmarkCandidatePool::golden(std::size_t i) const {
  const flow::QoR& q = benchmark_->qor.at(i);
  pareto::Point p(objectives_.size());
  for (std::size_t k = 0; k < objectives_.size(); ++k) {
    p[k] = q.metric(objectives_[k]);
  }
  return p;
}

std::vector<CandidatePool::RevealOutcome> BenchmarkCandidatePool::reveal_batch(
    const std::vector<std::size_t>& indices,
    const RevealObserver& on_outcome) {
  std::vector<RevealOutcome> outcomes(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const std::size_t i = indices[j];
    if (!revealed_.at(i)) {  // a repeat, even within this batch, is free
      revealed_[i] = true;
      ++runs_;
    }
    outcomes[j].ok = true;
    outcomes[j].value = golden(i);
    if (on_outcome) on_outcome(j, outcomes[j]);
  }
  return outcomes;
}

std::vector<pareto::Point> BenchmarkCandidatePool::golden_front() const {
  std::vector<pareto::Point> all;
  all.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) all.push_back(golden(i));
  return pareto::pareto_front(all);
}

ResultQuality evaluate_result(const BenchmarkCandidatePool& pool,
                              const TuningResult& result) {
  if (result.pareto_indices.empty()) {
    throw std::invalid_argument("evaluate_result: empty predicted set");
  }
  const std::vector<pareto::Point> golden = pool.golden_front();
  std::vector<pareto::Point> approx;
  approx.reserve(result.pareto_indices.size());
  for (std::size_t i : result.pareto_indices) {
    approx.push_back(pool.golden(i));
  }
  // Only the non-dominated subset of the prediction forms the front.
  approx = pareto::pareto_front(approx);

  ResultQuality q;
  q.hv_error = pareto::hypervolume_error(golden, approx);
  q.adrs = pareto::adrs(golden, approx);
  q.runs = result.tool_runs;
  return q;
}

SourceData SourceData::from_benchmark(
    const flow::BenchmarkSet& source,
    const std::vector<std::size_t>& objectives, std::size_t max_points,
    std::uint64_t seed) {
  SourceData data;
  const auto all_encoded = source.encoded_configs();
  std::vector<std::size_t> idx;
  if (source.size() > max_points) {
    common::Rng rng(seed);
    idx = rng.sample_without_replacement(source.size(), max_points);
  } else {
    idx.resize(source.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  }
  data.xs.reserve(idx.size());
  data.ys.assign(objectives.size(), {});
  for (auto& col : data.ys) col.reserve(idx.size());
  for (std::size_t i : idx) {
    data.xs.push_back(all_encoded[i]);
    for (std::size_t k = 0; k < objectives.size(); ++k) {
      data.ys[k].push_back(source.qor[i].metric(objectives[k]));
    }
  }
  return data;
}

}  // namespace ppat::tuner
