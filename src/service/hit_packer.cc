#include "service/hit_packer.h"

#include "common/macros.h"

namespace crowdsky::service {

void HitPacker::RegisterSlot(int query_id, const AmtCostModel& pricing,
                             int64_t slots) {
  CROWDSKY_CHECK(query_id >= 0);
  CROWDSKY_CHECK(pricing.questions_per_hit > 0);
  CROWDSKY_CHECK(slots > 0);
  open_[pricing][query_id] += slots;
  slots_per_query_[query_id] += slots;
  slots_total_ += slots;
}

int64_t HitPacker::CloseEpoch() {
  if (open_.empty()) return 0;
  int64_t epoch_hits = 0;
  for (const auto& [pricing, per_query] : open_) {
    EpochClassSpan span;
    span.epoch = epochs_;
    span.pricing = pricing;
    span.query_slots.reserve(per_query.size());
    for (const auto& [query_id, slots] : per_query) {
      CROWDSKY_CHECK(slots > 0);
      span.query_slots.emplace_back(query_id, slots);
      span.slots += slots;
      span.isolated_hits += pricing.PackedHitCount(slots);
    }
    span.packed_hits = pricing.PackedHitCount(span.slots);
    CROWDSKY_CHECK(span.packed_hits <= span.isolated_hits);
    epoch_hits += span.packed_hits;
    packed_hits_ += span.packed_hits;
    isolated_hits_ += span.isolated_hits;
    spans_.push_back(std::move(span));
  }
  open_.clear();
  ++epochs_;
  return epoch_hits;
}

double HitPacker::packed_cost_usd() const {
  double usd = 0.0;
  for (const EpochClassSpan& span : spans_) {
    usd += span.pricing.reward_per_hit * span.pricing.workers_per_question *
           static_cast<double>(span.packed_hits);
  }
  return usd;
}

double HitPacker::isolated_cost_usd() const {
  double usd = 0.0;
  for (const EpochClassSpan& span : spans_) {
    usd += span.pricing.reward_per_hit * span.pricing.workers_per_question *
           static_cast<double>(span.isolated_hits);
  }
  return usd;
}

int64_t HitPacker::slots_for_query(int query_id) const {
  const auto it = slots_per_query_.find(query_id);
  return it == slots_per_query_.end() ? 0 : it->second;
}

}  // namespace crowdsky::service
