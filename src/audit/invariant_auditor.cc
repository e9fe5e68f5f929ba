#include "audit/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "algo/evaluator.h"
#include "algo/run_result.h"

namespace crowdsky::audit {
namespace {

// A systematically-broken input would otherwise produce O(n^2) identical
// violations; past this many the report stops growing.
constexpr size_t kMaxViolations = 64;

std::string Pair(int u, int v) {
  // Built with append to dodge GCC 12's -Wrestrict false positive on
  // `const char* + std::string&&`.
  std::string out = "(";
  out += std::to_string(u);
  out += ", ";
  out += std::to_string(v);
  out += ")";
  return out;
}

/// The map's keys in canonical (attr, first, second) order. Hash-map
/// iteration order is seed-dependent; reports built by walking a count map
/// must not inherit that order (determinism rule CS-ORD003 — two runs of
/// the same broken input must emit violations in the same order).
std::vector<PairQuestion> SortedQuestionKeys(
    const std::unordered_map<PairQuestion, int64_t, PairQuestionHash>& map) {
  std::vector<PairQuestion> keys;
  keys.reserve(map.size());
  for (const auto& [q, count] : map) keys.push_back(q);
  std::sort(keys.begin(), keys.end(),
            [](const PairQuestion& a, const PairQuestion& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  return keys;
}

}  // namespace

bool AuditReport::Check(bool condition, const char* invariant,
                        std::string detail) {
  ++checks;
  if (condition) return true;
  if (violations.size() < kMaxViolations) {
    violations.push_back({invariant, std::move(detail)});
  } else if (violations.size() == kMaxViolations) {
    violations.push_back(
        {"audit.suppressed", "further violations suppressed"});
  }
  return false;
}

std::string AuditReport::ToString() const {
  std::ostringstream oss;
  if (ok()) {
    oss << "audit OK (" << checks << " checks)";
    return oss.str();
  }
  oss << "invariant audit: " << violations.size() << " violation(s) in "
      << checks << " checks:";
  for (const AuditViolation& v : violations) {
    oss << "\n  [" << v.invariant << "] " << v.detail;
  }
  return oss.str();
}

RelationSnapshot SnapshotRelation(const PreferenceGraph& graph) {
  RelationSnapshot snap;
  snap.n = graph.size();
  const auto un = static_cast<size_t>(snap.n);
  snap.strict.assign(un, DynamicBitset(un));
  snap.rep.resize(un);
  for (int u = 0; u < snap.n; ++u) {
    snap.rep[static_cast<size_t>(u)] = graph.representative(u);
    DynamicBitset& row = snap.strict[static_cast<size_t>(u)];
    for (int v = 0; v < snap.n; ++v) {
      if (graph.Prefers(u, v)) row.Set(static_cast<size_t>(v));
    }
  }
  return snap;
}

SessionSnapshot SnapshotSession(const CrowdSession& session) {
  SessionSnapshot snap;
  snap.pair_questions = session.stats().questions;
  snap.unary_questions = session.stats().unary_questions;
  snap.cache_hits = session.stats().cache_hits;
  snap.rounds = session.stats().rounds;
  snap.open_round_questions = session.open_round_questions();
  snap.budget = session.question_budget();
  snap.retries = session.stats().retries;
  snap.unresolved = session.stats().unresolved_questions;
  snap.questions_per_round = session.questions_per_round();
  snap.paid_pairs = session.paid_questions();
  snap.retry_pairs.reserve(session.retry_events().size());
  for (const RetryEvent& e : session.retry_events()) {
    snap.retry_pairs.push_back(e.question);
  }
  snap.unresolved_pairs = session.unresolved_questions();
  return snap;
}

void InvariantAuditor::AuditRelationSnapshot(const RelationSnapshot& snapshot,
                                             const std::string& label,
                                             AuditReport* report) const {
  const int n = snapshot.n;
  const auto un = static_cast<size_t>(n);
  const bool shape_ok =
      report->Check(n >= 0 && snapshot.strict.size() == un &&
                        snapshot.rep.size() == un,
                    "prefgraph.shape",
                    label + ": snapshot has " +
                        std::to_string(snapshot.strict.size()) +
                        " strict rows / " +
                        std::to_string(snapshot.rep.size()) + " reps for n=" +
                        std::to_string(n));
  if (!shape_ok) return;
  for (size_t u = 0; u < un; ++u) {
    if (snapshot.strict[u].size() != un) {
      report->Check(false, "prefgraph.shape",
                    label + ": strict row " + std::to_string(u) +
                        " has wrong size");
      return;
    }
  }
  if (n > options_.max_brute_force_nodes) return;

  // Representatives: in range and idempotent; class membership masks.
  std::vector<DynamicBitset> class_mask(un, DynamicBitset(un));
  for (int u = 0; u < n; ++u) {
    const int r = snapshot.rep[static_cast<size_t>(u)];
    if (!report->Check(r >= 0 && r < n, "prefgraph.representative",
                       label + ": rep[" + std::to_string(u) + "] = " +
                           std::to_string(r) + " out of range")) {
      continue;
    }
    report->Check(snapshot.rep[static_cast<size_t>(r)] == r,
                  "prefgraph.representative",
                  label + ": rep[" + std::to_string(u) + "] = " +
                      std::to_string(r) + " is not itself a representative");
    class_mask[static_cast<size_t>(r)].Set(static_cast<size_t>(u));
  }

  for (int u = 0; u < n; ++u) {
    const auto su = static_cast<size_t>(u);
    const DynamicBitset& row = snapshot.strict[su];
    // Irreflexivity.
    report->Check(!row.Test(su), "prefgraph.irreflexive",
                  label + ": " + std::to_string(u) +
                      " strictly preferred over itself");
    const int ru = snapshot.rep[su];
    // Rows are constant within an equivalence class, and classes hold no
    // internal strict edges.
    report->Check(row == snapshot.strict[static_cast<size_t>(ru)],
                  "prefgraph.class_rows",
                  label + ": " + std::to_string(u) +
                      " disagrees with its representative " +
                      std::to_string(ru) + " on strict preferences");
    report->Check(row.IntersectionCount(
                      class_mask[static_cast<size_t>(ru)]) == 0,
                  "prefgraph.class_strict",
                  label + ": " + std::to_string(u) +
                      " strictly preferred over a member of its own "
                      "equivalence class");
    row.ForEachSetBit([&](size_t sv) {
      const int v = static_cast<int>(sv);
      // Antisymmetry.
      report->Check(!snapshot.strict[sv].Test(su), "prefgraph.antisymmetry",
                    label + ": both orientations of " + Pair(u, v) +
                        " are strict");
      // Transitive closedness: everything v precedes, u precedes too.
      report->Check(snapshot.strict[sv].IsSubsetOf(row),
                    "prefgraph.closure",
                    label + ": " + Pair(u, v) +
                        " is strict but a successor of " + std::to_string(v) +
                        " is not a successor of " + std::to_string(u));
      // Column consistency: a strict edge to v covers v's whole class.
      const int rv = snapshot.rep[sv];
      report->Check(
          class_mask[static_cast<size_t>(rv)].IsSubsetOf(row),
          "prefgraph.class_columns",
          label + ": " + Pair(u, v) + " is strict but not " +
              std::to_string(u) + " over all of " + std::to_string(v) +
              "'s equivalence class");
    });
  }
}

void InvariantAuditor::AuditPreferenceGraph(const PreferenceGraph& graph,
                                            const std::string& label,
                                            AuditReport* report) const {
  if (graph.size() > options_.max_brute_force_nodes) return;
  AuditRelationSnapshot(SnapshotRelation(graph), label, report);
}

void InvariantAuditor::AuditDominanceStructure(
    const DominanceStructure& structure, const PreferenceMatrix& known,
    AuditReport* report) const {
  const int n = structure.size();
  if (!report->Check(n == known.size(), "dominance.shape",
                     "structure size " + std::to_string(n) +
                         " != matrix size " + std::to_string(known.size()))) {
    return;
  }
  if (n > options_.max_brute_force_nodes) return;
  const auto un = static_cast<size_t>(n);

  // Independent brute-force recomputation of the dominance relation.
  std::vector<DynamicBitset> brute_dominatees(un, DynamicBitset(un));
  std::vector<DynamicBitset> brute_dominators(un, DynamicBitset(un));
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t && known.Dominates(s, t)) {
        brute_dominatees[static_cast<size_t>(s)].Set(static_cast<size_t>(t));
        brute_dominators[static_cast<size_t>(t)].Set(static_cast<size_t>(s));
      }
    }
  }

  std::vector<int> brute_ds_size(un, 0);
  for (int t = 0; t < n; ++t) {
    const auto st = static_cast<size_t>(t);
    brute_ds_size[st] = static_cast<int>(brute_dominators[st].Count());
    report->Check(structure.dominator_bits(t) == brute_dominators[st],
                  "dominance.dominators",
                  "DS(" + std::to_string(t) +
                      ") disagrees with brute-force dominance");
    report->Check(structure.dominatees(t) == brute_dominatees[st],
                  "dominance.dominatees",
                  "D(" + std::to_string(t) +
                      ") disagrees with brute-force dominance");
    report->Check(structure.dominating_set_size(t) == brute_ds_size[st],
                  "dominance.ds_size",
                  "|DS(" + std::to_string(t) + ")| = " +
                      std::to_string(structure.dominating_set_size(t)) +
                      " but brute force counts " +
                      std::to_string(brute_ds_size[st]));
  }

  // Evaluation order: a permutation sorted by ascending |DS|, ties by id.
  const std::vector<int>& order = structure.evaluation_order();
  if (report->Check(order.size() == un, "dominance.evaluation_order",
                    "evaluation order has " + std::to_string(order.size()) +
                        " entries for n=" + std::to_string(n))) {
    DynamicBitset seen(un);
    bool perm_ok = true;
    for (const int t : order) {
      if (t < 0 || t >= n || seen.Test(static_cast<size_t>(t))) {
        perm_ok = false;
        break;
      }
      seen.Set(static_cast<size_t>(t));
    }
    report->Check(perm_ok, "dominance.evaluation_order",
                  "evaluation order is not a permutation of the ids");
    for (size_t i = 1; perm_ok && i < order.size(); ++i) {
      const int a = order[i - 1];
      const int b = order[i];
      const int da = brute_ds_size[static_cast<size_t>(a)];
      const int db = brute_ds_size[static_cast<size_t>(b)];
      report->Check(da < db || (da == db && a < b),
                    "dominance.evaluation_order",
                    "ids " + Pair(a, b) + " with |DS| " + Pair(da, db) +
                        " are out of order");
    }
  }

  // SKY_AK: exactly the empty-DS ids, ascending.
  std::vector<int> expected_skyline;
  for (int t = 0; t < n; ++t) {
    if (brute_ds_size[static_cast<size_t>(t)] == 0) {
      expected_skyline.push_back(t);
    }
  }
  report->Check(structure.known_skyline() == expected_skyline,
                "dominance.known_skyline",
                "SKY_AK has " +
                    std::to_string(structure.known_skyline().size()) +
                    " ids, brute force finds " +
                    std::to_string(expected_skyline.size()));

  // c(t) and the layers exist only where a reader asked for them.
  if (!structure.has_reduction()) return;

  // Skyline layers: layer(t) = 1 + max layer over DS(t). Processing in
  // ascending |DS| is a valid topological order (Lemma 3).
  std::vector<int> by_ds(un);
  std::iota(by_ds.begin(), by_ds.end(), 0);
  std::sort(by_ds.begin(), by_ds.end(), [&](int a, int b) {
    return brute_ds_size[static_cast<size_t>(a)] <
           brute_ds_size[static_cast<size_t>(b)];
  });
  std::vector<int> expected_layer(un, 0);
  int expected_num_layers = 0;
  for (const int t : by_ds) {
    int layer = 1;
    brute_dominators[static_cast<size_t>(t)].ForEachSetBit([&](size_t s) {
      layer = std::max(layer, expected_layer[s] + 1);
    });
    expected_layer[static_cast<size_t>(t)] = layer;
    expected_num_layers = std::max(expected_num_layers, layer);
  }
  report->Check(structure.num_layers() == expected_num_layers,
                "dominance.layers",
                "num_layers = " + std::to_string(structure.num_layers()) +
                    ", brute force finds " +
                    std::to_string(expected_num_layers));
  for (int t = 0; t < n; ++t) {
    report->Check(
        structure.layer_of(t) == expected_layer[static_cast<size_t>(t)],
        "dominance.layers",
        "layer_of(" + std::to_string(t) + ") = " +
            std::to_string(structure.layer_of(t)) + ", brute force finds " +
            std::to_string(expected_layer[static_cast<size_t>(t)]));
  }
  if (structure.num_layers() == expected_num_layers) {
    for (int l = 1; l <= expected_num_layers; ++l) {
      std::vector<int> expected_members;
      for (int t = 0; t < n; ++t) {
        if (expected_layer[static_cast<size_t>(t)] == l) {
          expected_members.push_back(t);
        }
      }
      report->Check(structure.layer(l) == expected_members,
                    "dominance.layers",
                    "layer " + std::to_string(l) +
                        " membership disagrees with brute force");
    }
  }

  // Direct dominators: the transitive reduction — s in c(t) iff s
  // dominates t and nothing s dominates also dominates t.
  for (int t = 0; t < n; ++t) {
    const auto st = static_cast<size_t>(t);
    std::vector<int> expected_direct;
    brute_dominators[st].ForEachSetBit([&](size_t s) {
      if (brute_dominatees[s].IntersectionCount(brute_dominators[st]) == 0) {
        expected_direct.push_back(static_cast<int>(s));
      }
    });
    std::vector<int> actual = structure.direct_dominators(t);
    std::sort(actual.begin(), actual.end());
    report->Check(actual == expected_direct, "dominance.direct_dominators",
                  "c(" + std::to_string(t) +
                      ") disagrees with the brute-force transitive "
                      "reduction");
  }
}

void InvariantAuditor::AuditSessionSnapshot(const SessionSnapshot& snapshot,
                                            AuditReport* report) const {
  report->Check(snapshot.pair_questions >= 0 &&
                    snapshot.unary_questions >= 0 &&
                    snapshot.cache_hits >= 0 && snapshot.rounds >= 0 &&
                    snapshot.open_round_questions >= 0 &&
                    snapshot.retries >= 0 && snapshot.unresolved >= 0,
                "session.counters", "a session counter is negative");
  report->Check(
      snapshot.pair_questions ==
          static_cast<int64_t>(snapshot.paid_pairs.size()),
      "session.paid_log",
      "question counter " + std::to_string(snapshot.pair_questions) +
          " != paid-question log size " +
          std::to_string(snapshot.paid_pairs.size()));

  std::unordered_map<PairQuestion, int64_t, PairQuestionHash> paid_count;
  paid_count.reserve(snapshot.paid_pairs.size());
  for (const PairQuestion& q : snapshot.paid_pairs) {
    report->Check(q.attr >= 0 && q.first >= 0 && q.first < q.second,
                  "session.canonical_log",
                  "paid question attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) + " is not canonical");
    ++paid_count[q];
  }
  // The resilience ledger: a pair appears in the paid log exactly
  // 1 + (its recorded retries) times — no question is ever paid for
  // twice without a retry event justifying the extra attempt.
  std::unordered_map<PairQuestion, int64_t, PairQuestionHash> retry_count;
  retry_count.reserve(snapshot.retry_pairs.size());
  for (const PairQuestion& q : snapshot.retry_pairs) {
    ++retry_count[q];
    report->Check(paid_count.count(q) > 0, "session.retry_unpaid",
                  "retry recorded for attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) +
                      " which never appears in the paid log");
  }
  report->Check(
      snapshot.retries == static_cast<int64_t>(snapshot.retry_pairs.size()),
      "session.retry_log",
      "retry counter " + std::to_string(snapshot.retries) +
          " != retry log size " + std::to_string(snapshot.retry_pairs.size()));
  for (const PairQuestion& q : SortedQuestionKeys(paid_count)) {
    const int64_t paid = paid_count.at(q);
    const auto it = retry_count.find(q);
    const int64_t retries = it == retry_count.end() ? 0 : it->second;
    report->Check(paid == 1 + retries, "session.no_repay",
                  "pair attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) + " was paid for " +
                      std::to_string(paid) + " times with " +
                      std::to_string(retries) + " recorded retries");
  }
  report->Check(snapshot.unresolved ==
                    static_cast<int64_t>(snapshot.unresolved_pairs.size()),
                "session.unresolved_log",
                "unresolved counter " + std::to_string(snapshot.unresolved) +
                    " != unresolved set size " +
                    std::to_string(snapshot.unresolved_pairs.size()));
  for (const PairQuestion& q : snapshot.unresolved_pairs) {
    report->Check(paid_count.count(q) > 0, "session.unresolved_unpaid",
                  "unresolved pair attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) + " was never paid for");
  }

  int64_t per_round_total = 0;
  for (const int64_t q : snapshot.questions_per_round) {
    report->Check(q > 0, "session.rounds",
                  "a closed round holds " + std::to_string(q) +
                      " questions (must be positive)");
    per_round_total += q;
  }
  report->Check(
      snapshot.rounds ==
          static_cast<int64_t>(snapshot.questions_per_round.size()),
      "session.rounds",
      "round counter " + std::to_string(snapshot.rounds) +
          " != per-round history size " +
          std::to_string(snapshot.questions_per_round.size()));
  const int64_t paid_total =
      snapshot.pair_questions + snapshot.unary_questions;
  report->Check(per_round_total + snapshot.open_round_questions ==
                    paid_total,
                "session.round_sum",
                "per-round counts sum to " +
                    std::to_string(per_round_total) + " (+" +
                    std::to_string(snapshot.open_round_questions) +
                    " open) but " + std::to_string(paid_total) +
                    " questions were paid for");
  if (snapshot.budget >= 0) {
    report->Check(paid_total <= snapshot.budget, "session.budget",
                  std::to_string(paid_total) +
                      " questions paid under a budget of " +
                      std::to_string(snapshot.budget));
  }
}

void InvariantAuditor::AuditSession(const CrowdSession& session,
                                    AuditReport* report) const {
  AuditSessionSnapshot(SnapshotSession(session), report);
  for (const PairQuestion& q : session.paid_questions()) {
    const bool cached = session.IsCached(q.attr, q.first, q.second);
    const bool unresolved = session.IsUnresolved(q.attr, q.first, q.second);
    report->Check(cached || unresolved, "session.cache",
                  "paid pair attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) +
                      " is neither cached nor marked unresolved");
    report->Check(!(cached && unresolved), "session.unresolved_cached",
                  "pair attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) +
                      " is both cached and marked unresolved");
  }
}

void InvariantAuditor::AuditJournalSnapshot(
    const std::vector<persist::JournalRecord>& records,
    const SessionSnapshot& snapshot, AuditReport* report) const {
  using persist::AttemptOutcome;
  using persist::JournalRecord;

  // Re-derive every session ledger from the journal alone, then compare.
  std::vector<PairQuestion> journal_paid;
  std::vector<PairQuestion> journal_unresolved;
  std::vector<int64_t> journal_rounds;
  std::unordered_map<PairQuestion, int64_t, PairQuestionHash> record_count;
  int64_t journal_retries = 0;
  int64_t journal_unary = 0;
  int64_t open = 0;
  uint64_t prev_attempt_draws = 0;
  uint64_t prev_vote_draws = 0;
  size_t index = 0;
  for (const JournalRecord& r : records) {
    const std::string tag = "record " + std::to_string(index);
    ++index;
    report->Check(r.fault_attempt_draws >= prev_attempt_draws &&
                      r.fault_vote_draws >= prev_vote_draws,
                  "journal.fault_cursor",
                  tag + ": fault-trace cursor moved backwards");
    prev_attempt_draws = r.fault_attempt_draws;
    prev_vote_draws = r.fault_vote_draws;
    switch (r.kind) {
      case JournalRecord::Kind::kPairAsk: {
        ++record_count[r.question];
        if (!report->Check(!r.attempts.empty(), "journal.record_shape",
                           tag + ": pair record holds no attempts")) {
          break;
        }
        for (size_t a = 0; a + 1 < r.attempts.size(); ++a) {
          report->Check(
              r.attempts[a].status == AttemptOutcome::kFailed,
              "journal.record_shape",
              tag + ": attempt " + std::to_string(a) +
                  " did not fail, yet a later attempt was paid for");
        }
        const bool last_failed =
            r.attempts.back().status == AttemptOutcome::kFailed;
        report->Check(
            last_failed != r.resolved, "journal.record_shape",
            tag + (r.resolved
                       ? ": resolved record ends in a failed attempt"
                       : ": given-up record ends in a successful attempt"));
        journal_paid.insert(journal_paid.end(), r.attempts.size(),
                            r.question);
        journal_retries += static_cast<int64_t>(r.attempts.size()) - 1;
        open += static_cast<int64_t>(r.attempts.size());
        if (!r.resolved) journal_unresolved.push_back(r.question);
        break;
      }
      case JournalRecord::Kind::kUnary:
        ++journal_unary;
        ++open;
        break;
      case JournalRecord::Kind::kRoundEnd:
        report->Check(r.round_questions == open, "journal.round_partition",
                      tag + ": round-end record claims " +
                          std::to_string(r.round_questions) +
                          " questions, but " + std::to_string(open) +
                          " were journaled since the previous round end");
        journal_rounds.push_back(r.round_questions);
        open = 0;
        break;
      case JournalRecord::Kind::kTermination:
        // The governor's stop marker is only ever appended at a quiescent
        // tail: nothing may follow it, and the round it closes must have
        // been sealed first (the epilogue is kRoundEnd + kTermination).
        report->Check(index == records.size(), "journal.termination",
                      tag + ": termination record is not the journal's "
                            "last record");
        report->Check(open == 0, "journal.termination",
                      tag + ": termination record inside an open round (" +
                          std::to_string(open) + " unsealed questions)");
        break;
    }
  }

  // Exactly one durable record per paid question — a re-paid question
  // would surface here as a second record for the same canonical pair.
  for (const PairQuestion& q : SortedQuestionKeys(record_count)) {
    const int64_t count = record_count.at(q);
    report->Check(count == 1, "journal.one_record",
                  "pair attr=" + std::to_string(q.attr) + " " +
                      Pair(q.first, q.second) + " has " +
                      std::to_string(count) + " durable records");
  }
  report->Check(
      journal_paid == snapshot.paid_pairs, "journal.paid_log",
      "journal-derived paid sequence (" +
          std::to_string(journal_paid.size()) +
          " attempts) differs from the session's paid log (" +
          std::to_string(snapshot.paid_pairs.size()) + " attempts)");
  report->Check(journal_retries == snapshot.retries, "journal.retries",
                "journal implies " + std::to_string(journal_retries) +
                    " retries, session counted " +
                    std::to_string(snapshot.retries));
  report->Check(journal_unary == snapshot.unary_questions, "journal.unary",
                "journal holds " + std::to_string(journal_unary) +
                    " unary records, session counted " +
                    std::to_string(snapshot.unary_questions));
  // unresolved_questions() reports in canonical sort order; match it.
  std::sort(journal_unresolved.begin(), journal_unresolved.end(),
            [](const PairQuestion& a, const PairQuestion& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  report->Check(
      journal_unresolved == snapshot.unresolved_pairs, "journal.unresolved",
      "journal's given-up records (" +
          std::to_string(journal_unresolved.size()) +
          ") differ from the session's unresolved set (" +
          std::to_string(snapshot.unresolved_pairs.size()) + ")");
  // Per-round equality makes the journal-replayed AMT cost equal the
  // session-derived cost under every cost model, the paper's included.
  report->Check(journal_rounds == snapshot.questions_per_round,
                "journal.rounds",
                "journal-derived per-round counts (" +
                    std::to_string(journal_rounds.size()) +
                    " rounds) differ from the session's history (" +
                    std::to_string(snapshot.questions_per_round.size()) +
                    " rounds)");
  report->Check(open == snapshot.open_round_questions, "journal.open_round",
                "journal tail holds " + std::to_string(open) +
                    " questions past the last round end, session reports " +
                    std::to_string(snapshot.open_round_questions) +
                    " open");
}

void InvariantAuditor::AuditJournal(
    const std::vector<persist::JournalRecord>& records,
    const CrowdSession& session, AuditReport* report) const {
  AuditJournalSnapshot(records, SnapshotSession(session), report);
  report->Check(
      session.journal_position() == static_cast<int64_t>(records.size()),
      "journal.position",
      "session durable position " +
          std::to_string(session.journal_position()) +
          " != journal record count " + std::to_string(records.size()));
  report->Check(session.credits_remaining() == 0, "journal.credits",
                "resumed session left " +
                    std::to_string(session.credits_remaining()) +
                    " journal credits unconsumed");
}

void InvariantAuditor::AuditCostModel(
    const AmtCostModel& model,
    const std::vector<int64_t>& questions_per_round,
    AuditReport* report) const {
  if (!report->Check(model.questions_per_hit > 0 &&
                         model.workers_per_question > 0 &&
                         model.reward_per_hit >= 0.0,
                     "cost.model", "cost-model parameters out of range")) {
    return;
  }
  // The paper's formula, recomputed from scratch:
  //   cost = reward * omega * sum_i ceil(|Q_i| / questions_per_hit)
  int64_t hits = 0;
  for (const int64_t q : questions_per_round) {
    if (!report->Check(q >= 0, "cost.rounds",
                       "negative per-round question count")) {
      return;
    }
    hits += q / model.questions_per_hit +
            (q % model.questions_per_hit != 0 ? 1 : 0);
  }
  report->Check(model.Hits(questions_per_round) == hits, "cost.hits",
                "model computes " +
                    std::to_string(model.Hits(questions_per_round)) +
                    " HITs, the formula gives " + std::to_string(hits));
  const double expected = model.reward_per_hit *
                          model.workers_per_question *
                          static_cast<double>(hits);
  const double actual = model.Cost(questions_per_round);
  report->Check(std::abs(actual - expected) <= 1e-9 * (1.0 + expected),
                "cost.formula",
                "model cost " + std::to_string(actual) +
                    " != formula cost " + std::to_string(expected));
}

void InvariantAuditor::AuditResult(const AlgoResult& result,
                                   const CrowdSession& session,
                                   int num_tuples,
                                   const CompletionState& completion,
                                   AuditReport* report) const {
  const auto un = static_cast<size_t>(num_tuples);
  if (!report->Check(completion.complete.size() == un &&
                         completion.nonskyline.size() == un,
                     "result.completion_shape",
                     "completion bitsets are not sized to the dataset")) {
    return;
  }
  report->Check(completion.complete.Count() == un, "result.all_complete",
                std::to_string(completion.complete.Count()) + " of " +
                    std::to_string(num_tuples) +
                    " tuples complete at end of run");
  report->Check(completion.nonskyline.IsSubsetOf(completion.complete),
                "result.nonskyline_subset",
                "a non-skyline mark lacks the complete mark");

  // The skyline must be exactly the sorted complement of the non-skyline
  // set (undecided tuples stay in the skyline by Section 2.3).
  bool ids_ok = true;
  DynamicBitset skyline_bits(un);
  for (size_t i = 0; i < result.skyline.size(); ++i) {
    const int t = result.skyline[i];
    if (t < 0 || t >= num_tuples ||
        (i > 0 && result.skyline[i - 1] >= t)) {
      ids_ok = false;
      break;
    }
    skyline_bits.Set(static_cast<size_t>(t));
  }
  report->Check(ids_ok, "result.skyline_ids",
                "skyline ids are not strictly ascending within range");
  if (ids_ok) {
    DynamicBitset expected(un);
    expected.SetAll();
    expected.AndNotWith(completion.nonskyline);
    report->Check(skyline_bits == expected, "result.skyline_set",
                  "skyline != complement of the non-skyline set (" +
                      std::to_string(skyline_bits.AndNotCount(expected)) +
                      " extra, " +
                      std::to_string(expected.AndNotCount(skyline_bits)) +
                      " missing ids)");
  }

  report->Check(result.incomplete_tuples >= 0 &&
                    result.incomplete_tuples <= num_tuples,
                "result.incomplete_range",
                "incomplete_tuples = " +
                    std::to_string(result.incomplete_tuples));

  // Every aggregate must mirror the session it ran through.
  const SessionStats& stats = session.stats();
  report->Check(result.questions == stats.questions + stats.unary_questions,
                "result.questions",
                "result reports " + std::to_string(result.questions) +
                    " questions, the session paid for " +
                    std::to_string(stats.questions + stats.unary_questions));
  report->Check(result.rounds == stats.rounds, "result.rounds",
                "result reports " + std::to_string(result.rounds) +
                    " rounds, the session closed " +
                    std::to_string(stats.rounds));
  report->Check(result.questions_per_round == session.questions_per_round(),
                "result.questions_per_round",
                "per-round history disagrees with the session");
  report->Check(session.open_round_questions() == 0, "result.open_round",
                std::to_string(session.open_round_questions()) +
                    " paid questions left in an unclosed round");
  report->Check(result.free_lookups >= stats.cache_hits,
                "result.free_lookups",
                "free lookups " + std::to_string(result.free_lookups) +
                    " below the session's cache hits " +
                    std::to_string(stats.cache_hits));
  report->Check(result.contradictions >= 0, "result.contradictions",
                "negative contradiction count");
  report->Check(result.retries == stats.retries, "result.retries",
                "result reports " + std::to_string(result.retries) +
                    " retries, the session recorded " +
                    std::to_string(stats.retries));
  report->Check(result.degraded_quorum == stats.degraded_quorum,
                "result.degraded_quorum",
                "result reports " + std::to_string(result.degraded_quorum) +
                    " degraded-quorum answers, the session recorded " +
                    std::to_string(stats.degraded_quorum));
  report->Check(result.failed_attempts == stats.failed_attempts,
                "result.failed_attempts",
                "result reports " + std::to_string(result.failed_attempts) +
                    " failed attempts, the session recorded " +
                    std::to_string(stats.failed_attempts));
  report->Check(result.backoff_rounds == stats.backoff_rounds,
                "result.backoff_rounds",
                "result reports " + std::to_string(result.backoff_rounds) +
                    " backoff rounds, the session recorded " +
                    std::to_string(stats.backoff_rounds));

  // Completeness report: the tuple and question ledgers must add up.
  const CompletenessReport& comp = result.completeness;
  bool undetermined_ok = true;
  for (size_t i = 0; i < comp.undetermined_tuples.size(); ++i) {
    const int t = comp.undetermined_tuples[i];
    if (t < 0 || t >= num_tuples ||
        (i > 0 && comp.undetermined_tuples[i - 1] >= t)) {
      undetermined_ok = false;
      break;
    }
  }
  report->Check(undetermined_ok, "result.undetermined_ids",
                "undetermined tuple ids are not strictly ascending within "
                "range");
  report->Check(static_cast<int64_t>(comp.undetermined_tuples.size()) ==
                    result.incomplete_tuples,
                "result.undetermined_count",
                std::to_string(comp.undetermined_tuples.size()) +
                    " undetermined ids vs incomplete_tuples = " +
                    std::to_string(result.incomplete_tuples));
  report->Check(comp.complete == comp.undetermined_tuples.empty(),
                "result.complete_flag",
                "completeness flag disagrees with the undetermined list");
  report->Check(comp.determined_tuples +
                        static_cast<int64_t>(comp.undetermined_tuples.size()) ==
                    num_tuples,
                "result.determined_sum",
                std::to_string(comp.determined_tuples) + " determined + " +
                    std::to_string(comp.undetermined_tuples.size()) +
                    " undetermined != " + std::to_string(num_tuples) +
                    " tuples");
  report->Check(comp.resolved_questions ==
                    stats.questions - stats.retries -
                        stats.unresolved_questions,
                "result.resolved_questions",
                "resolved-question count disagrees with the session's "
                "attempt/retry/unresolved ledger");
  report->Check(comp.unresolved_questions == stats.unresolved_questions,
                "result.unresolved_questions",
                "result reports " + std::to_string(comp.unresolved_questions) +
                    " unresolved questions, the session recorded " +
                    std::to_string(stats.unresolved_questions));
  report->Check(comp.retries_exhausted == (stats.unresolved_questions > 0),
                "result.retries_exhausted",
                "retries_exhausted flag disagrees with the session's "
                "unresolved count");
  // BudgetCanAsk, not CanAsk: the flag is budget-only (governor denials
  // report through the TerminationReport), and CanAsk() would count a
  // denial against the governor's ledger just by auditing.
  report->Check(!comp.budget_exhausted ||
                    (session.question_budget() >= 0 &&
                     !session.BudgetCanAsk()),
                "result.budget_exhausted",
                "budget_exhausted reported but the session can still ask");
}

void InvariantAuditor::AuditTermination(const AlgoResult& result,
                                        const CrowdSession& session,
                                        AuditReport* report) const {
  const TerminationReport& term = result.termination;
  const SessionStats& stats = session.stats();

  // The headline guarantee: a governed run never spends past its cap.
  // The tolerance matches the governor's own kCostEpsilon — cost is a sum
  // of (reward * omega) terms, one per HIT, accumulated identically on
  // both sides.
  if (term.governed && term.cost_cap_usd > 0.0) {
    report->Check(term.cost_spent_usd <= term.cost_cap_usd + 1e-9,
                  "governor.cost_cap",
                  "spent $" + std::to_string(term.cost_spent_usd) +
                      " under a cap of $" +
                      std::to_string(term.cost_cap_usd));
  }
  // The report's spend recomputes from the session's per-round history
  // under the report's own pricing — the governor metered an independent
  // HIT ledger (closed_hits_), so equality proves neither drifted.
  if (term.governed) {
    const double recomputed =
        term.cost_model.Cost(session.questions_per_round());
    report->Check(std::abs(term.cost_spent_usd - recomputed) <=
                      1e-9 * (1.0 + recomputed),
                  "governor.cost_ledger",
                  "report claims $" + std::to_string(term.cost_spent_usd) +
                      " spent, the session's rounds recompute to $" +
                      std::to_string(recomputed));
  }
  report->Check(term.rounds == stats.rounds, "governor.rounds",
                "report claims " + std::to_string(term.rounds) +
                    " rounds, the session closed " +
                    std::to_string(stats.rounds));

  // Reason/ledger consistency: each stop reason implies its cap was
  // actually configured, and the round cap was actually reached (the
  // other caps can trip between the threshold checks, so only >= style
  // facts hold for them).
  const TerminationReason reason = term.reason;
  report->Check(term.governed || reason == TerminationReason::kCompleted,
                "governor.reason",
                "ungoverned run reports stop reason '" +
                    std::string(TerminationReasonName(reason)) + "'");
  report->Check(
      term.governed || (term.cost_cap_usd == 0.0 && term.round_cap == 0 &&
                        term.stall_cap == 0),
      "governor.reason", "ungoverned run reports nonzero caps");
  if (reason == TerminationReason::kDollarCap) {
    report->Check(term.cost_cap_usd > 0.0, "governor.reason",
                  "dollar-cap stop without a configured dollar cap");
  }
  if (reason == TerminationReason::kRoundCap) {
    report->Check(term.round_cap > 0 && term.rounds >= term.round_cap,
                  "governor.reason",
                  "round-cap stop at " + std::to_string(term.rounds) +
                      " rounds under a cap of " +
                      std::to_string(term.round_cap));
  }
  if (reason == TerminationReason::kStalled) {
    report->Check(term.stall_cap > 0, "governor.reason",
                  "stall stop without a configured stall watchdog");
  }
  // Denials are only counted after the stop latched; a run that completed
  // naturally was never refused funding.
  report->Check(term.denied_questions >= 0 &&
                    (reason != TerminationReason::kCompleted ||
                     term.denied_questions == 0),
                "governor.denied",
                "completed run reports " +
                    std::to_string(term.denied_questions) +
                    " denied questions");
  report->Check(term.unresolved == session.unresolved_questions(),
                "governor.unresolved",
                "report lists " + std::to_string(term.unresolved.size()) +
                    " unresolved questions, the session holds " +
                    std::to_string(session.unresolved_questions().size()));
}

void InvariantAuditor::AuditResumeExtension(const AlgoResult& partial,
                                            const AlgoResult& resumed,
                                            AuditReport* report) const {
  // In-by-default (Section 2.3) makes the partial skyline = proven
  // skyline + undetermined tuples, so extending the run can only shrink
  // it. Both id lists are ascending (checked by AuditResult), so set
  // algebra via std::includes / set_difference is sound.
  report->Check(std::includes(partial.skyline.begin(), partial.skyline.end(),
                              resumed.skyline.begin(), resumed.skyline.end()),
                "resume.skyline_subset",
                "resumed skyline holds tuples the partial run had already "
                "excluded");
  std::vector<int> dropped;
  std::set_difference(partial.skyline.begin(), partial.skyline.end(),
                      resumed.skyline.begin(), resumed.skyline.end(),
                      std::back_inserter(dropped));
  const std::vector<int>& partial_und =
      partial.completeness.undetermined_tuples;
  const std::vector<int>& resumed_und =
      resumed.completeness.undetermined_tuples;
  report->Check(std::includes(partial_und.begin(), partial_und.end(),
                              dropped.begin(), dropped.end()),
                "resume.dropped_undetermined",
                std::to_string(dropped.size()) +
                    " tuples left the skyline on resume, but not all were "
                    "undetermined in the partial run");
  report->Check(std::includes(partial_und.begin(), partial_und.end(),
                              resumed_und.begin(), resumed_und.end()),
                "resume.undetermined_subset",
                "resume marked a tuple undetermined that the partial run "
                "had determined");

  // Paid work only grows: the resumed run replays the partial run's
  // journal as credits and then keeps going.
  report->Check(resumed.questions >= partial.questions &&
                    resumed.rounds >= partial.rounds &&
                    resumed.completeness.resolved_questions >=
                        partial.completeness.resolved_questions,
                "resume.monotone",
                "a paid-work counter shrank across the resume (questions " +
                    std::to_string(partial.questions) + " -> " +
                    std::to_string(resumed.questions) + ", rounds " +
                    std::to_string(partial.rounds) + " -> " +
                    std::to_string(resumed.rounds) + ")");

  // The capped run's per-round history is a prefix of the resumed run's,
  // except that its final round may have been cut short by the cap — the
  // resume re-opens that round and closes it at its true size.
  const std::vector<int64_t>& pr = partial.questions_per_round;
  const std::vector<int64_t>& rr = resumed.questions_per_round;
  bool prefix_ok = pr.size() <= rr.size();
  for (size_t i = 0; prefix_ok && i < pr.size(); ++i) {
    prefix_ok = i + 1 < pr.size() ? pr[i] == rr[i] : pr[i] <= rr[i];
  }
  report->Check(prefix_ok, "resume.round_prefix",
                "partial per-round history (" + std::to_string(pr.size()) +
                    " rounds) is not a prefix of the resumed history (" +
                    std::to_string(rr.size()) + " rounds)");
}

CompletionMonitor::CompletionMonitor(int n)
    : prev_complete_(static_cast<size_t>(n)),
      prev_nonskyline_(static_cast<size_t>(n)) {}

void CompletionMonitor::Observe(const CompletionState& state,
                                AuditReport* report) {
  ++observations_;
  const std::string tag = "observation " + std::to_string(observations_);
  if (!report->Check(state.complete.size() == prev_complete_.size() &&
                         state.nonskyline.size() == prev_nonskyline_.size(),
                     "completion.shape",
                     tag + ": completion bitsets changed size")) {
    return;
  }
  report->Check(prev_complete_.IsSubsetOf(state.complete),
                "completion.monotone_complete",
                tag + ": a tuple lost its complete mark");
  report->Check(prev_nonskyline_.IsSubsetOf(state.nonskyline),
                "completion.monotone_nonskyline",
                tag + ": a tuple lost its non-skyline mark");
  report->Check(state.nonskyline.IsSubsetOf(state.complete),
                "completion.nonskyline_subset",
                tag + ": a non-skyline mark lacks the complete mark");
  // A tuple completed as skyline may never flip to non-skyline.
  DynamicBitset flipped = state.nonskyline;
  flipped.AndWith(prev_complete_);
  report->Check(flipped.IsSubsetOf(prev_nonskyline_),
                "completion.fate_flip",
                tag + ": a complete skyline tuple became non-skyline");
  prev_complete_ = state.complete;
  prev_nonskyline_ = state.nonskyline;
}

}  // namespace crowdsky::audit
