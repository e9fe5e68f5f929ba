#include "algo/crowdsky_algorithm.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "persist/journal.h"

namespace crowdsky {
namespace internal {

void ResolveKnownTies(const Dataset& dataset, CrowdKnowledge* knowledge,
                      CrowdSession* session, CompletionState* completion,
                      bool parallel_rounds) {
  const PreferenceMatrix known = PreferenceMatrix::FromKnown(dataset);
  // Group tuples by identical known rows.
  std::map<std::vector<double>, std::vector<int>> groups;
  for (int id = 0; id < known.size(); ++id) {
    std::vector<double> key(known.row(id), known.row(id) + known.dims());
    groups[std::move(key)].push_back(id);
  }
  // Within each group, run a crowd-side BNL in AC: a member is eliminated
  // iff another member is strictly preferred within AC (equal known values
  // mean equal tuples stay incomparable and both survive).
  struct GroupState {
    std::vector<int> pending;
    std::vector<int> survivors;
  };
  std::vector<GroupState> states;
  for (auto& [key, ids] : groups) {
    if (ids.size() < 2) continue;
    GroupState gs;
    gs.survivors.push_back(ids[0]);
    gs.pending.assign(ids.begin() + 1, ids.end());
    states.push_back(std::move(gs));
  }
  // Round-robin across groups so independent groups can share rounds.
  bool active = !states.empty();
  while (active) {
    active = false;
    for (GroupState& gs : states) {
      if (gs.pending.empty()) continue;
      active = true;
      const int c = gs.pending.front();
      gs.pending.erase(gs.pending.begin());
      bool c_eliminated = false;
      bool paid_this_round = false;
      std::vector<int> next_survivors;
      next_survivors.reserve(gs.survivors.size() + 1);
      for (size_t i = 0; i < gs.survivors.size(); ++i) {
        const int s = gs.survivors[i];
        if (c_eliminated) {
          next_survivors.push_back(s);  // c is out; keep the rest as-is
          continue;
        }
        AcRelation r = knowledge->Relation(s, c);
        if (r == AcRelation::kUnknown) {
          for (int attr = 0; attr < knowledge->num_attrs(); ++attr) {
            if (knowledge->graph(attr).Comparable(s, c)) continue;
            if (!session->IsCached(attr, s, c) &&
                !session->IsUnresolved(attr, s, c) && !session->CanAsk()) {
              break;  // budget exhausted: leave the pair unresolved
            }
            const CrowdSession::AskResult res = session->TryAsk(attr, s, c);
            if (res.paid) paid_this_round = true;
            if (res.status == AskStatus::kUnresolved) {
              continue;  // retry cap ran dry; the attribute stays unknown
            }
            knowledge->Record(attr, s, c, res.answer).CheckOK();
          }
          r = knowledge->Relation(s, c);
        }
        if (r == AcRelation::kPrefers) {
          c_eliminated = true;
          next_survivors.push_back(s);
        } else if (r == AcRelation::kPreferredBy) {
          completion->MarkNonSkyline(s);  // drop s
        } else {
          next_survivors.push_back(s);
        }
      }
      gs.survivors = std::move(next_survivors);
      if (c_eliminated) {
        completion->MarkNonSkyline(c);
      } else {
        gs.survivors.push_back(c);
      }
      if (!parallel_rounds && paid_this_round) session->EndRound();
    }
    if (parallel_rounds) session->EndRound();
  }
  session->EndRound();
}

int64_t SeedKnownCrowdValues(const Dataset& dataset,
                             const CrowdSkyOptions& options,
                             CrowdKnowledge* knowledge) {
  if (options.known_crowd_values == nullptr) return 0;
  const std::vector<DynamicBitset>& masks = *options.known_crowd_values;
  CROWDSKY_CHECK_MSG(
      static_cast<int>(masks.size()) == dataset.schema().num_crowd(),
      "known_crowd_values needs one bitset per crowd attribute");
  const PreferenceMatrix crowd = PreferenceMatrix::FromCrowd(dataset);
  int64_t seeded = 0;
  for (int attr = 0; attr < knowledge->num_attrs(); ++attr) {
    const DynamicBitset& mask = masks[static_cast<size_t>(attr)];
    CROWDSKY_CHECK_MSG(mask.size() == static_cast<size_t>(dataset.size()),
                       "known_crowd_values bitset has the wrong size");
    std::vector<int> known = mask.ToVector();
    if (known.size() < 2) continue;
    // The known values induce a total order; seeding the sorted chain is
    // enough — the closure supplies every other pair transitively.
    std::sort(known.begin(), known.end(), [&crowd, attr](int a, int b) {
      return crowd.value(a, attr) < crowd.value(b, attr);
    });
    for (size_t i = 1; i < known.size(); ++i) {
      const int prev = known[i - 1];
      const int cur = known[i];
      const Answer answer = crowd.value(prev, attr) < crowd.value(cur, attr)
                                ? Answer::kFirstPreferred
                                : Answer::kEqual;
      knowledge->Record(attr, prev, cur, answer).CheckOK();
      ++seeded;
    }
  }
  return seeded;
}

void AuditFinalState(const Dataset& dataset,
                     const DominanceStructure& structure,
                     const CrowdKnowledge& knowledge,
                     const CrowdSession& session,
                     const CompletionState& completion,
                     const AlgoResult& result, audit::AuditReport* report) {
  const audit::InvariantAuditor auditor;
  for (int attr = 0; attr < knowledge.num_attrs(); ++attr) {
    auditor.AuditPreferenceGraph(knowledge.graph(attr),
                                 "crowd attr " + std::to_string(attr),
                                 report);
  }
  auditor.AuditSession(session, report);
  auditor.AuditCostModel(AmtCostModel{}, session.questions_per_round(),
                         report);
  if (persist::JournalWriter* journal = session.journal();
      journal != nullptr) {
    // Durability rules are audited against the bytes actually on disk:
    // sync, re-read, and require the journal to reproduce every session
    // ledger (and, on a resume, that every credit was consumed).
    journal->Sync().CheckOK();
    Result<persist::RecoveredJournal> recovered =
        persist::ReadJournal(journal->path());
    CROWDSKY_CHECK_MSG(recovered.ok(),
                       "audit could not re-read the answer journal");
    report->Check(!recovered->torn_tail, "journal.torn",
                  "journal has a torn tail while its writer is alive");
    auditor.AuditJournal(recovered->records, session, report);
  }
  auditor.AuditDominanceStructure(structure,
                                  PreferenceMatrix::FromKnown(dataset),
                                  report);
  auditor.AuditResult(result, session, dataset.size(), completion, report);
  auditor.AuditTermination(result, session, report);
}

void FillStats(const CrowdSession& session, const CrowdKnowledge& knowledge,
               int64_t free_lookups, int num_tuples, AlgoResult* result) {
  const SessionStats& s = session.stats();
  result->questions = s.questions + s.unary_questions;
  result->rounds = s.rounds;
  result->free_lookups = free_lookups + s.cache_hits;
  result->worker_answers = session.oracle_stats().worker_answers;
  result->contradictions = knowledge.contradiction_count();
  result->questions_per_round = session.questions_per_round();
  result->retries = s.retries;
  result->degraded_quorum = s.degraded_quorum;
  result->failed_attempts = s.failed_attempts;
  result->backoff_rounds = s.backoff_rounds;

  CompletenessReport& c = result->completeness;
  std::sort(c.undetermined_tuples.begin(), c.undetermined_tuples.end());
  c.complete = c.undetermined_tuples.empty();
  c.determined_tuples =
      num_tuples - static_cast<int64_t>(c.undetermined_tuples.size());
  // Each retry re-pays an already-counted question, and every unresolved
  // question's attempts never produced an answer; the remainder is the
  // set of distinct pair questions that were actually resolved.
  c.resolved_questions = s.questions - s.retries - s.unresolved_questions;
  c.unresolved_questions = s.unresolved_questions;
  // Budget-only by design: a governor denial is reported through the
  // termination report below, not as budget exhaustion (and CanAsk() has
  // a counting side effect on the governor that post-run reporting must
  // not trigger).
  c.budget_exhausted = !c.complete && session.question_budget() >= 0 &&
                       !session.BudgetCanAsk();
  c.retries_exhausted = s.unresolved_questions > 0;

  // Why the run stopped paying. Ungoverned runs still report their round
  // count and unresolved set so the report is self-contained.
  TerminationReport& term = result->termination;
  term.rounds = s.rounds;
  term.unresolved = session.unresolved_questions();
  if (const RunGovernor* governor = session.governor();
      governor != nullptr) {
    term.governed = true;
    term.reason = governor->reason();
    term.cost_spent_usd = governor->cost_spent_usd();
    term.cost_cap_usd = governor->cost_cap_usd();
    term.round_cap = governor->options().max_rounds;
    term.stall_cap = governor->options().stall_rounds;
    term.denied_questions = governor->denied_questions();
    term.cost_model = governor->cost_model();
  }
}

}  // namespace internal

AlgoResult RunCrowdSky(const Dataset& dataset,
                       const DominanceStructure& structure,
                       CrowdSession* session,
                       const CrowdSkyOptions& options) {
  const int n = dataset.size();
  CrowdKnowledge knowledge(n, dataset.schema().num_crowd(),
                           options.contradiction_policy);
  CompletionState completion(n);
  AlgoResult result;
  audit::AuditReport audit_report;
  std::optional<audit::CompletionMonitor> monitor;
  if (options.audit) monitor.emplace(n);
  result.seeded_relations =
      internal::SeedKnownCrowdValues(dataset, options, &knowledge);
  int64_t free_lookups = 0;
  {
    obs::TraceSpan span = obs::SpanIf(options.obs, "phase.resolve_ties");
    internal::ResolveKnownTies(dataset, &knowledge, session, &completion,
                               /*parallel_rounds=*/false);
  }
  if (monitor) monitor->Observe(completion, &audit_report);

  // SKY_AK(R) members are complete from the start; those eliminated by the
  // tie pre-pass are complete non-skyline tuples instead.
  for (const int t : structure.known_skyline()) {
    if (completion.complete.Test(static_cast<size_t>(t))) continue;
    completion.MarkSkyline(t);
    result.skyline.push_back(t);
  }
  if (monitor) monitor->Observe(completion, &audit_report);

  // Evaluate remaining tuples in ascending |DS(t)| order (line 7).
  obs::TraceSpan evaluate_span = obs::SpanIf(options.obs, "phase.evaluate");
  for (const int t : structure.evaluation_order()) {
    if (completion.complete.Test(static_cast<size_t>(t))) continue;
    TupleEvaluator evaluator(t, structure, &knowledge, session, &completion,
                             options);
    while (!evaluator.done()) {
      if (evaluator.Step()) session->EndRound();
    }
    free_lookups += evaluator.free_lookups();
    if (!evaluator.complete()) {
      ++result.incomplete_tuples;
      result.completeness.undetermined_tuples.push_back(t);
    }
    if (evaluator.is_skyline()) {
      completion.MarkSkyline(t);
      result.skyline.push_back(t);
    } else {
      completion.MarkNonSkyline(t);
    }
    if (monitor) monitor->Observe(completion, &audit_report);
  }

  evaluate_span.End();
  std::sort(result.skyline.begin(), result.skyline.end());
  internal::FillStats(*session, knowledge, free_lookups, n, &result);
  if (options.audit) {
    internal::AuditFinalState(dataset, structure, knowledge, *session,
                              completion, result, &audit_report);
    CROWDSKY_CHECK_MSG(audit_report.ok(),
                       audit_report.ToString().c_str());
  }
  return result;
}

AlgoResult RunCrowdSky(const Dataset& dataset, CrowdSession* session,
                       const CrowdSkyOptions& options) {
  const DominanceStructure structure(PreferenceMatrix::FromKnown(dataset));
  return RunCrowdSky(dataset, structure, session, options);
}

}  // namespace crowdsky
