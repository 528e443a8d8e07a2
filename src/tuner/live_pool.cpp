#include "tuner/live_pool.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "journal/journal.hpp"

namespace ppat::tuner {

LiveCandidatePool::LiveCandidatePool(std::vector<flow::Config> candidates,
                                     std::vector<std::size_t> objectives,
                                     flow::BatchEvaluator& service)
    : candidates_(std::move(candidates)),
      objectives_(std::move(objectives)),
      service_(&service) {
  if (candidates_.empty()) {
    throw std::invalid_argument("LiveCandidatePool: no candidates");
  }
  if (objectives_.empty()) {
    throw std::invalid_argument("LiveCandidatePool: no objectives selected");
  }
  encoded_.reserve(candidates_.size());
  for (const flow::Config& c : candidates_) {
    encoded_.push_back(service_->space().encode(c));
  }
  state_.assign(candidates_.size(), State::kUnknown);
  values_.resize(candidates_.size());
  records_.resize(candidates_.size());
  has_record_.assign(candidates_.size(), false);
}

const flow::RunRecord* LiveCandidatePool::record(std::size_t i) const {
  return has_record_.at(i) ? &records_[i] : nullptr;
}

std::vector<CandidatePool::RevealOutcome> LiveCandidatePool::reveal_batch(
    const std::vector<std::size_t>& indices) {
  std::vector<RevealOutcome> outcomes(indices.size());

  // Dispatch only candidates with no known outcome yet, each at most once
  // even if duplicated inside `indices` — a reveal never double-spends runs.
  std::vector<std::size_t> pending;
  for (std::size_t i : indices) {
    if (state_.at(i) == State::kUnknown &&
        std::find(pending.begin(), pending.end(), i) == pending.end()) {
      pending.push_back(i);
    }
  }
  if (!pending.empty()) {
    std::vector<flow::Config> configs;
    configs.reserve(pending.size());
    for (std::size_t i : pending) configs.push_back(candidates_[i]);
    flow::BatchEvaluator::RunObserver observer;
    if (journal_ != nullptr) {
      // Journal each outcome as EvalService finalizes it (worker-thread
      // callback; append_reveal is thread-safe): the full RunRecord —
      // status including watchdog cancellations, attempt count, elapsed
      // wall-clock — becomes durable before the batch even returns.
      observer = [this, &pending](std::size_t j, const flow::RunRecord& rec) {
        journal::RevealRecord out;
        out.id = pending[j];
        out.status = rec.status;
        out.attempts = rec.attempts;
        out.elapsed_ms = rec.elapsed_ms;
        if (rec.ok()) {
          out.objectives.reserve(objectives_.size());
          for (std::size_t k : objectives_) {
            out.objectives.push_back(rec.qor.metric(k));
          }
        }
        out.error = rec.error;
        journal_->append_reveal(out);
      };
    }
    const std::vector<flow::RunRecord> records =
        service_->evaluate_batch(configs, observer);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      records_[i] = records[j];
      has_record_[i] = true;
      if (records[j].ok()) {
        state_[i] = State::kRevealed;
        ++runs_;
        pareto::Point p(objectives_.size());
        for (std::size_t k = 0; k < objectives_.size(); ++k) {
          p[k] = records[j].qor.metric(objectives_[k]);
        }
        values_[i] = std::move(p);
      } else {
        state_[i] = State::kFailed;
        ++failed_;
      }
    }
  }

  for (std::size_t j = 0; j < indices.size(); ++j) {
    const std::size_t i = indices[j];
    if (state_[i] == State::kRevealed) {
      outcomes[j].ok = true;
      outcomes[j].value = values_[i];
    } else {
      outcomes[j].ok = false;
      outcomes[j].timed_out =
          records_[i].status == flow::RunStatus::kTimedOut;
      std::ostringstream msg;
      msg << "candidate " << i << " "
          << journal::reveal_status_name(records_[i].status) << " after "
          << records_[i].attempts << " attempt(s): " << records_[i].error;
      outcomes[j].error = msg.str();
    }
    if (has_record_[i]) {
      outcomes[j].attempts = records_[i].attempts;
      outcomes[j].elapsed_ms = records_[i].elapsed_ms;
    }
  }
  return outcomes;
}

pareto::Point LiveCandidatePool::reveal(std::size_t i) {
  const auto outcomes = reveal_batch({i});
  if (!outcomes.front().ok) {
    throw PoolEvaluationError(outcomes.front().error);
  }
  return outcomes.front().value;
}

}  // namespace ppat::tuner
