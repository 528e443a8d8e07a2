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
  records_.resize(candidates_.size());
}

const flow::RunRecord* LiveCandidatePool::record(std::size_t i) const {
  return state_.at(i) == State::kUnknown ? nullptr : &records_[i];
}

CandidatePool::RevealOutcome LiveCandidatePool::outcome_of(
    std::size_t i, const flow::RunRecord& rec) const {
  RevealOutcome out;
  out.ok = rec.ok();
  if (out.ok) {
    out.value.reserve(objectives_.size());
    for (std::size_t k : objectives_) out.value.push_back(rec.qor.metric(k));
  } else {
    out.timed_out = rec.status == flow::RunStatus::kTimedOut;
    std::ostringstream msg;
    msg << "candidate " << i << " " << journal::reveal_status_name(rec.status)
        << " after " << rec.attempts << " attempt(s): " << rec.error;
    out.error = msg.str();
  }
  out.attempts = rec.attempts;
  out.elapsed_ms = rec.elapsed_ms;
  return out;
}

std::vector<CandidatePool::RevealOutcome> LiveCandidatePool::reveal_batch(
    const std::vector<std::size_t>& indices,
    const RevealObserver& on_outcome) {
  // Dispatch only candidates with no known outcome yet, each at most once
  // even if duplicated inside `indices` — a reveal never double-spends runs.
  // The evaluator's observer reports the first position of each pending
  // candidate; every other position is reported once the batch is back.
  std::vector<std::size_t> pending;
  std::vector<std::size_t> pending_pos;
  for (std::size_t p = 0; p < indices.size(); ++p) {
    const std::size_t i = indices[p];
    if (state_.at(i) == State::kUnknown &&
        std::find(pending.begin(), pending.end(), i) == pending.end()) {
      pending.push_back(i);
      pending_pos.push_back(p);
    }
  }
  if (!pending.empty()) {
    std::vector<flow::Config> configs;
    configs.reserve(pending.size());
    for (std::size_t i : pending) configs.push_back(candidates_[i]);
    flow::BatchEvaluator::RunObserver observer;
    if (on_outcome) {
      observer = [&](std::size_t j, const flow::RunRecord& rec) {
        on_outcome(pending_pos[j], outcome_of(pending[j], rec));
      };
    }
    const std::vector<flow::RunRecord> records =
        service_->evaluate_batch(configs, observer);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      records_[i] = records[j];
      if (records[j].ok()) {
        state_[i] = State::kRevealed;
        ++runs_;
      } else {
        state_[i] = State::kFailed;
        ++failed_;
      }
    }
  }

  std::vector<RevealOutcome> outcomes;
  outcomes.reserve(indices.size());
  for (std::size_t p = 0; p < indices.size(); ++p) {
    outcomes.push_back(outcome_of(indices[p], records_[indices[p]]));
    if (on_outcome && std::find(pending_pos.begin(), pending_pos.end(), p) ==
                          pending_pos.end()) {
      on_outcome(p, outcomes.back());
    }
  }
  return outcomes;
}

}  // namespace ppat::tuner
