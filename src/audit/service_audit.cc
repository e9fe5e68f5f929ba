#include "audit/service_audit.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

namespace crowdsky::audit {
namespace {

constexpr double kDollarTolerance = 1e-9;

std::string QueryTag(int query_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "query %d", query_id);
  return buf;
}

double SpanCost(const AmtCostModel& pricing, int64_t hits) {
  return pricing.reward_per_hit * pricing.workers_per_question *
         static_cast<double>(hits);
}

}  // namespace

void AuditServicePacking(const ServicePackingSnapshot& snapshot,
                         AuditReport* report) {
  // service.query_cost: each query's reported dollars re-derive from its
  // per-round counts under its own pricing — the packed dispatch never
  // changes what the query itself pays on paper.
  for (const auto& query : snapshot.queries) {
    const double recomputed =
        query.cost_model.Cost(query.questions_per_round);
    report->Check(
        std::abs(recomputed - query.reported_cost_usd) <= kDollarTolerance,
        "service.query_cost",
        QueryTag(query.query_id) + ": reported $" +
            std::to_string(query.reported_cost_usd) + " but per-round counts "
            "recompute to $" + std::to_string(recomputed));
  }

  // service.routing: every dispatched slot belongs to a listed query.
  int64_t slot_sum = 0;
  for (const auto& query : snapshot.queries) slot_sum += query.slots;
  report->Check(slot_sum == snapshot.slots, "service.routing",
                "per-query slots sum to " + std::to_string(slot_sum) +
                    " but the ledger dispatched " +
                    std::to_string(snapshot.slots));

  // service.epoch_arithmetic: every span adds up internally. Dollar
  // re-derivation accumulates *integer* HITs per pack class here; the
  // per-class dollars are computed once each, at the ledger comparison.
  struct ClassHits {
    int64_t packed = 0;
    int64_t isolated = 0;
  };
  const auto class_key = [](const AmtCostModel& pricing) {
    return std::make_tuple(pricing.reward_per_hit,
                           pricing.workers_per_question,
                           pricing.questions_per_hit);
  };
  std::map<std::tuple<double, int, int>, ClassHits> class_hits;
  int64_t span_slots = 0;
  int64_t span_packed = 0;
  int64_t span_isolated = 0;
  int64_t prev_epoch = -1;
  std::map<int64_t, bool> epoch_seen;
  for (size_t s = 0; s < snapshot.spans.size(); ++s) {
    const auto& span = snapshot.spans[s];
    const std::string tag = "span " + std::to_string(s) + " (epoch " +
                            std::to_string(span.epoch) + ")";
    report->Check(span.epoch >= prev_epoch, "service.epoch_arithmetic",
                  tag + ": epochs must close in order");
    prev_epoch = span.epoch;
    epoch_seen[span.epoch] = true;
    int64_t slots = 0;
    int64_t isolated = 0;
    int last_query = -1;
    for (const auto& [query_id, q_slots] : span.query_slots) {
      report->Check(query_id > last_query, "service.epoch_arithmetic",
                    tag + ": query ids must be ascending and unique");
      last_query = query_id;
      report->Check(q_slots > 0, "service.epoch_arithmetic",
                    tag + ": " + QueryTag(query_id) +
                        " contributes a non-positive slot count");
      slots += q_slots;
      isolated += span.pricing.PackedHitCount(q_slots);
    }
    report->Check(slots == span.slots, "service.epoch_arithmetic",
                  tag + ": per-query slots sum to " + std::to_string(slots) +
                      ", span claims " + std::to_string(span.slots));
    report->Check(span.packed_hits == span.pricing.PackedHitCount(span.slots),
                  "service.epoch_arithmetic",
                  tag + ": packed_hits != ceil(slots / questions_per_hit)");
    report->Check(span.isolated_hits == isolated, "service.epoch_arithmetic",
                  tag + ": isolated_hits != sum of per-query ceilings");
    report->Check(span.packed_hits <= span.isolated_hits,
                  "service.epoch_arithmetic",
                  tag + ": packing cannot cost more than isolation");
    span_slots += span.slots;
    span_packed += span.packed_hits;
    span_isolated += span.isolated_hits;
    ClassHits& hits = class_hits[class_key(span.pricing)];
    hits.packed += span.packed_hits;
    hits.isolated += span.isolated_hits;
  }

  // service.round_alignment: a query's k-th crowd round rode the k-th
  // epoch it participated in — its per-epoch slot sequence (one span per
  // epoch, since a query has one pricing) is exactly questions_per_round.
  for (const auto& query : snapshot.queries) {
    std::vector<int64_t> per_epoch;
    for (const auto& span : snapshot.spans) {
      for (const auto& [query_id, q_slots] : span.query_slots) {
        if (query_id == query.query_id) per_epoch.push_back(q_slots);
      }
    }
    report->Check(per_epoch == query.questions_per_round,
                  "service.round_alignment",
                  QueryTag(query.query_id) + ": per-epoch slot sequence (" +
                      std::to_string(per_epoch.size()) +
                      " epochs) does not equal its questions_per_round (" +
                      std::to_string(query.questions_per_round.size()) +
                      " rounds)");
    int64_t round_sum = 0;
    for (const int64_t q : query.questions_per_round) round_sum += q;
    report->Check(round_sum == query.slots, "service.round_alignment",
                  QueryTag(query.query_id) + ": rounds sum to " +
                      std::to_string(round_sum) + " questions but " +
                      std::to_string(query.slots) + " slots were packed");
  }

  // service.ledger: totals equal the span sums; dollars re-derive from the
  // HIT ledgers; the saving is exactly isolated − packed and never negative.
  report->Check(span_slots == snapshot.slots, "service.ledger",
                "span slots sum to " + std::to_string(span_slots) +
                    ", ledger claims " + std::to_string(snapshot.slots));
  report->Check(span_packed == snapshot.packed_hits, "service.ledger",
                "span packed HITs sum to " + std::to_string(span_packed) +
                    ", ledger claims " + std::to_string(snapshot.packed_hits));
  report->Check(
      span_isolated == snapshot.isolated_hits, "service.ledger",
      "span isolated HITs sum to " + std::to_string(span_isolated) +
          ", ledger claims " + std::to_string(snapshot.isolated_hits));
  report->Check(static_cast<int64_t>(epoch_seen.size()) == snapshot.epochs,
                "service.ledger",
                "spans cover " + std::to_string(epoch_seen.size()) +
                    " distinct epochs, ledger claims " +
                    std::to_string(snapshot.epochs));
  double span_packed_usd = 0.0;
  double span_isolated_usd = 0.0;
  for (const auto& [key, hits] : class_hits) {
    AmtCostModel pricing;
    std::tie(pricing.reward_per_hit, pricing.workers_per_question,
             pricing.questions_per_hit) = key;
    span_packed_usd += SpanCost(pricing, hits.packed);
    span_isolated_usd += SpanCost(pricing, hits.isolated);
  }
  report->Check(std::abs(span_packed_usd - snapshot.cost_packed_usd) <=
                    kDollarTolerance,
                "service.ledger", "packed dollars do not re-derive from the "
                                  "span HIT ledger");
  report->Check(std::abs(span_isolated_usd - snapshot.cost_isolated_usd) <=
                    kDollarTolerance,
                "service.ledger", "isolated dollars do not re-derive from "
                                  "the span HIT ledger");
  report->Check(std::abs((snapshot.cost_isolated_usd -
                          snapshot.cost_packed_usd) -
                         snapshot.cost_saved_usd) <= kDollarTolerance,
                "service.ledger",
                "cost_saved_usd != cost_isolated_usd - cost_packed_usd");
  report->Check(snapshot.cost_saved_usd >= -kDollarTolerance,
                "service.ledger", "packing must never cost extra money");
  report->Check(snapshot.packed_hits <= snapshot.isolated_hits,
                "service.ledger", "packed HIT total exceeds isolated total");
}

}  // namespace crowdsky::audit
