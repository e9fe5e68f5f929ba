// Unit tests for the cross-query HitPacker and the service.* audit rules.
// The packer tests pin the greedy arithmetic and the interleaving
// invariance; the audit tests fabricate the violations the scheduler
// makes unrepresentable by construction.
#include "service/hit_packer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/service_audit.h"

namespace crowdsky::service {
namespace {

AmtCostModel Pricing(double reward, int omega, int qph) {
  AmtCostModel pricing;
  pricing.reward_per_hit = reward;
  pricing.workers_per_question = omega;
  pricing.questions_per_hit = qph;
  return pricing;
}

TEST(HitPackerTest, SharedEpochPaysOneCeiling) {
  HitPacker packer;
  const AmtCostModel amt = Pricing(0.02, 5, 5);
  // Three queries contribute 1 + 2 + 1 = 4 slots: one shared HIT instead
  // of three isolated ones.
  packer.RegisterSlot(0, amt);
  packer.RegisterSlot(1, amt);
  packer.RegisterSlot(1, amt);
  packer.RegisterSlot(2, amt);
  EXPECT_TRUE(packer.open_epoch_nonempty());
  EXPECT_EQ(packer.CloseEpoch(), 1);

  ASSERT_EQ(packer.spans().size(), 1u);
  const EpochClassSpan& span = packer.spans()[0];
  EXPECT_EQ(span.epoch, 0);
  EXPECT_EQ(span.slots, 4);
  EXPECT_EQ(span.packed_hits, 1);
  EXPECT_EQ(span.isolated_hits, 3);
  const std::vector<std::pair<int, int64_t>> expected = {{0, 1}, {1, 2},
                                                         {2, 1}};
  EXPECT_EQ(span.query_slots, expected);
  EXPECT_EQ(packer.epochs(), 1);
  EXPECT_EQ(packer.packed_hits(), 1);
  EXPECT_EQ(packer.isolated_hits(), 3);
  EXPECT_DOUBLE_EQ(packer.packed_cost_usd(), 0.02 * 5 * 1);
  EXPECT_DOUBLE_EQ(packer.isolated_cost_usd(), 0.02 * 5 * 3);
}

TEST(HitPackerTest, DifferentPricingNeverSharesAHit) {
  HitPacker packer;
  const AmtCostModel cheap = Pricing(0.02, 5, 5);
  const AmtCostModel premium = Pricing(0.05, 5, 5);
  const AmtCostModel fewer_workers = Pricing(0.02, 3, 5);
  packer.RegisterSlot(0, cheap);
  packer.RegisterSlot(1, premium);
  packer.RegisterSlot(2, fewer_workers);
  // Three pack classes, one slot each: no sharing possible.
  EXPECT_EQ(packer.CloseEpoch(), 3);
  EXPECT_EQ(packer.spans().size(), 3u);
  for (const EpochClassSpan& span : packer.spans()) {
    EXPECT_EQ(span.packed_hits, 1);
    EXPECT_EQ(span.isolated_hits, 1);
  }
}

TEST(HitPackerTest, EmptyEpochLeavesNoTrace) {
  HitPacker packer;
  EXPECT_FALSE(packer.open_epoch_nonempty());
  EXPECT_EQ(packer.CloseEpoch(), 0);
  EXPECT_EQ(packer.epochs(), 0);
  EXPECT_TRUE(packer.spans().empty());

  packer.RegisterSlot(0, Pricing(0.02, 5, 5));
  packer.CloseEpoch();
  EXPECT_EQ(packer.CloseEpoch(), 0);  // barrier fired with nothing pending
  EXPECT_EQ(packer.epochs(), 1);
}

TEST(HitPackerTest, RegistrationInterleavingDoesNotChangeThePacking) {
  // The same per-query slot counts registered in two different arrival
  // orders — the scheduler's thread-timing degree of freedom — must
  // produce byte-identical spans.
  const AmtCostModel amt = Pricing(0.02, 5, 5);
  HitPacker forward;
  for (const int qid : {0, 0, 1, 2, 2, 2}) forward.RegisterSlot(qid, amt);
  forward.CloseEpoch();

  HitPacker shuffled;
  for (const int qid : {2, 1, 0, 2, 0, 2}) shuffled.RegisterSlot(qid, amt);
  shuffled.CloseEpoch();

  ASSERT_EQ(forward.spans().size(), shuffled.spans().size());
  for (size_t i = 0; i < forward.spans().size(); ++i) {
    EXPECT_EQ(forward.spans()[i].query_slots,
              shuffled.spans()[i].query_slots);
    EXPECT_EQ(forward.spans()[i].packed_hits, shuffled.spans()[i].packed_hits);
    EXPECT_EQ(forward.spans()[i].isolated_hits,
              shuffled.spans()[i].isolated_hits);
  }
}

TEST(HitPackerTest, PerQueryLedgers) {
  HitPacker packer;
  const AmtCostModel amt = Pricing(0.02, 5, 5);
  packer.RegisterSlot(3, amt);
  packer.RouteAnswer(3);
  packer.RegisterSlot(3, amt);
  packer.RouteAnswer(3);
  packer.RegisterSlot(7, amt);
  packer.CloseEpoch();
  EXPECT_EQ(packer.slots_for_query(3), 2);
  EXPECT_EQ(packer.routed_for_query(3), 2);
  EXPECT_EQ(packer.slots_for_query(7), 1);
  EXPECT_EQ(packer.routed_for_query(7), 0);  // answer still in flight
  EXPECT_EQ(packer.slots_for_query(99), 0);
  EXPECT_EQ(packer.routed_for_query(99), 0);
}

// --- service.* audit rules on fabricated snapshots ------------------------

/// A consistent two-query, two-epoch snapshot every corruption test
/// starts from (queries ask 1 and 2 questions per round, ω=5, $0.02, 5
/// questions per HIT).
audit::ServicePackingSnapshot ConsistentSnapshot() {
  const AmtCostModel amt = Pricing(0.02, 5, 5);
  audit::ServicePackingSnapshot snapshot;

  audit::ServicePackingSnapshot::Query q0;
  q0.query_id = 0;
  q0.cost_model = amt;
  q0.questions_per_round = {1, 1};
  q0.reported_cost_usd = amt.Cost({1, 1});
  q0.slots = 2;
  q0.routed_answers = 2;
  snapshot.queries.push_back(q0);

  audit::ServicePackingSnapshot::Query q1;
  q1.query_id = 1;
  q1.cost_model = amt;
  q1.questions_per_round = {2, 2};
  q1.reported_cost_usd = amt.Cost({2, 2});
  q1.slots = 4;
  q1.routed_answers = 4;
  snapshot.queries.push_back(q1);

  for (int epoch = 0; epoch < 2; ++epoch) {
    audit::ServicePackingSnapshot::EpochSpan span;
    span.epoch = epoch;
    span.pricing = amt;
    span.query_slots = {{0, 1}, {1, 2}};
    span.slots = 3;
    span.packed_hits = 1;
    span.isolated_hits = 2;
    snapshot.spans.push_back(span);
  }
  snapshot.epochs = 2;
  snapshot.slots = 6;
  snapshot.packed_hits = 2;
  snapshot.isolated_hits = 4;
  snapshot.cost_packed_usd = 0.02 * 5 * 2;
  snapshot.cost_isolated_usd = 0.02 * 5 * 4;
  snapshot.cost_saved_usd = 0.02 * 5 * 2;
  return snapshot;
}

/// True iff some violation's invariant name equals `invariant`.
bool Violated(const audit::AuditReport& report, const std::string& invariant) {
  for (const auto& violation : report.violations) {
    if (violation.invariant == invariant) return true;
  }
  return false;
}

TEST(ServiceAuditTest, ConsistentSnapshotPasses) {
  audit::AuditReport report;
  audit::AuditServicePacking(ConsistentSnapshot(), &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 0);
}

TEST(ServiceAuditTest, FlagsMisreportedQueryCost) {
  auto snapshot = ConsistentSnapshot();
  snapshot.queries[0].reported_cost_usd += 0.02;  // one phantom HIT
  audit::AuditReport report;
  audit::AuditServicePacking(snapshot, &report);
  EXPECT_TRUE(Violated(report, "service.query_cost")) << report.ToString();
}

TEST(ServiceAuditTest, FlagsLostAnswer) {
  auto snapshot = ConsistentSnapshot();
  snapshot.queries[1].routed_answers -= 1;  // an answer never came back
  audit::AuditReport report;
  audit::AuditServicePacking(snapshot, &report);
  EXPECT_TRUE(Violated(report, "service.routing")) << report.ToString();
}

TEST(ServiceAuditTest, FlagsRoundEpochMisalignment) {
  auto snapshot = ConsistentSnapshot();
  // Query 0's two 1-question rounds smeared into one 2-question epoch:
  // slots still sum, but the round-to-epoch mapping is broken.
  snapshot.spans[0].query_slots = {{0, 2}, {1, 2}};
  snapshot.spans[0].slots = 4;
  snapshot.spans[0].isolated_hits = 2;
  snapshot.spans[1].query_slots = {{1, 2}};
  snapshot.spans[1].slots = 2;
  snapshot.spans[1].isolated_hits = 1;
  snapshot.isolated_hits = 3;
  snapshot.cost_isolated_usd = 0.02 * 5 * 3;
  snapshot.cost_saved_usd = snapshot.cost_isolated_usd - 0.02 * 5 * 2;
  audit::AuditReport report;
  audit::AuditServicePacking(snapshot, &report);
  EXPECT_TRUE(Violated(report, "service.round_alignment"))
      << report.ToString();
}

TEST(ServiceAuditTest, FlagsBrokenSpanArithmetic) {
  auto snapshot = ConsistentSnapshot();
  snapshot.spans[0].packed_hits = 2;  // != ceil(3 / 5)
  snapshot.packed_hits = 3;
  snapshot.cost_packed_usd = 0.02 * 5 * 3;
  snapshot.cost_saved_usd = snapshot.cost_isolated_usd - 0.02 * 5 * 3;
  audit::AuditReport report;
  audit::AuditServicePacking(snapshot, &report);
  EXPECT_TRUE(Violated(report, "service.epoch_arithmetic"))
      << report.ToString();
}

TEST(ServiceAuditTest, FlagsLedgerDrift) {
  auto snapshot = ConsistentSnapshot();
  snapshot.cost_saved_usd += 0.01;  // claims more saving than the spans
  audit::AuditReport report;
  audit::AuditServicePacking(snapshot, &report);
  EXPECT_TRUE(Violated(report, "service.ledger")) << report.ToString();
}

}  // namespace
}  // namespace crowdsky::service
