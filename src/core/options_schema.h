// The one list of the EngineOptions fields that leave the process or
// identify a run. RunFingerprint (core/engine.cc) hashes its stream
// fields; the shard spec codec (dist/wire.cc) ships its stream and policy
// fields under the listed names. A field outside the list is never
// shipped: the wall-clock deadline and cancel token, the journal
// directory, observability, the callables and the driver-internal
// pointers. The hand-hashed extras of the fingerprint (dataset,
// known_crowd_values, imported_answers) stay in RunFingerprint.
#pragma once

#include "core/engine.h"

namespace crowdsky {

/// How a listed field takes part in a run's identity.
enum class OptionClass {
  /// Shapes the question/answer stream: fingerprinted and shipped.
  kStream,
  /// Shipped to shard children but not fingerprinted: the audit flag,
  /// the cost model, the governor caps and the durability knobs may
  /// differ between a run and its resume.
  kPolicy,
};

/// Number of enumerators of each enum field in the list (values are
/// 0..count-1). The shard decoder refuses anything outside that range.
constexpr int EnumeratorCount(OracleKind) { return 3; }
constexpr int EnumeratorCount(persist::SyncMode) { return 3; }
constexpr int EnumeratorCount(ContradictionPolicy) { return 2; }
constexpr int EnumeratorCount(MultiAttributeStrategy) { return 2; }

/// Calls f(name, field, OptionClass) for every listed field of `o` (an
/// EngineOptions, const or not), in shard-spec order. `name` is the
/// field's shard-spec key. The stream fields come in fingerprint order.
template <class Opts, class F>
void VisitEngineOptions(Opts& o, F&& f) {
  constexpr OptionClass kS = OptionClass::kStream;
  constexpr OptionClass kP = OptionClass::kPolicy;
  f("algorithm", o.algorithm, kS);
  f("oracle", o.oracle, kS);
  f("worker.p_correct", o.worker.p_correct, kS);
  f("worker.p_stddev", o.worker.p_stddev, kS);
  f("worker.spammer_fraction", o.worker.spammer_fraction, kS);
  f("worker.unary_sigma", o.worker.unary_sigma, kS);
  f("workers_per_question", o.workers_per_question, kS);
  f("dynamic_voting", o.dynamic_voting, kS);
  f("seed", o.seed, kS);
  f("max_questions", o.max_questions, kS);
  auto& m = o.marketplace;
  f("market.pool_size", m.pool_size, kS);
  f("market.p_correct", m.population.p_correct, kS);
  f("market.p_stddev", m.population.p_stddev, kS);
  f("market.spammer_fraction", m.population.spammer_fraction, kS);
  f("market.unary_sigma", m.population.unary_sigma, kS);
  f("market.gold_questions", m.gold_questions, kS);
  f("market.qualification_threshold", m.qualification_threshold, kS);
  f("market.weighted_votes", m.weighted_votes, kS);
  f("faults.transient_error_rate", m.faults.transient_error_rate, kS);
  f("faults.hit_expiration_rate", m.faults.hit_expiration_rate, kS);
  f("faults.hit_expiration_rounds", m.faults.hit_expiration_rounds, kS);
  f("faults.worker_no_show_rate", m.faults.worker_no_show_rate, kS);
  f("faults.straggler_rate", m.faults.straggler_rate, kS);
  f("faults.straggler_delay_rounds", m.faults.straggler_delay_rounds, kS);
  f("market.seed", m.seed, kS);
  f("retry.max_retries", o.retry.max_retries, kS);
  f("retry.backoff_base_rounds", o.retry.backoff_base_rounds, kS);
  f("retry.max_backoff_rounds", o.retry.max_backoff_rounds, kS);
  f("cost.reward_per_hit", o.cost_model.reward_per_hit, kP);
  f("cost.workers_per_question", o.cost_model.workers_per_question, kP);
  f("cost.questions_per_hit", o.cost_model.questions_per_hit, kP);
  f("governor.max_rounds", o.governor.max_rounds, kP);
  f("governor.max_cost_usd", o.governor.max_cost_usd, kP);
  f("governor.stall_rounds", o.governor.stall_rounds, kP);
  f("durability.resume", o.durability.resume, kP);
  f("durability.sync", o.durability.sync, kP);
  auto& c = o.crowdsky;
  f("pruning.use_p1", c.pruning.use_p1, kS);
  f("pruning.use_p2", c.pruning.use_p2, kS);
  f("pruning.use_p3", c.pruning.use_p3, kS);
  f("pruning.use_completion_break", c.pruning.use_completion_break, kS);
  f("pruning.use_transitivity", c.pruning.use_transitivity, kS);
  f("contradiction_policy", c.contradiction_policy, kS);
  f("multi_attr", c.multi_attr, kS);
  f("audit", c.audit, kP);
}

}  // namespace crowdsky
