// HitPacker: the cross-query HIT assembly line of the multi-query service.
//
// The paper's cost formula (Section 6.2, cost = 0.02·ω·Σ⌈|Qᵢ|/5⌉) rounds
// *each query's* partial HIT up separately: a round with 1 question
// costs a whole HIT. When many queries run concurrently, their same-round
// questions can share HITs — the batching-across-operations trick of
// *Human-powered Sorts and Joins* — and the ceiling is paid once per
// *epoch* (the service's global round) instead of once per query.
//
// Determinism contract: the packed ledger is a pure function of the
// per-query round profiles and the admission schedule. Slots are
// registered per query as counts; at epoch close the packer aggregates
// them inside each *pack class* (identical pricing: reward, ω,
// questions_per_hit — questions with different pricing can never share a
// HIT), iterated in (pack class, query id) order, so the order in which
// queries register within an epoch never changes the packing.
//
// The packer is not thread-safe: the service's epoch replay (service.cc)
// drives it from the caller's thread alone.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "crowd/cost_model.h"

namespace crowdsky::service {

/// Strict-weak order on pricing triples, used to group questions into
/// pack classes. Two queries' questions may share a HIT iff their
/// effective pricing (ω folded in) compares equal both ways.
struct PackClassLess {
  bool operator()(const AmtCostModel& a, const AmtCostModel& b) const {
    if (a.reward_per_hit != b.reward_per_hit) {
      return a.reward_per_hit < b.reward_per_hit;
    }
    if (a.workers_per_question != b.workers_per_question) {
      return a.workers_per_question < b.workers_per_question;
    }
    return a.questions_per_hit < b.questions_per_hit;
  }
};

/// One (epoch, pack class) posting span: every question the service
/// dispatched in this epoch under this pricing, packed greedily into
/// shared HITs. The per-query slot counts are kept (ascending query id)
/// so the service auditor can re-derive both the packed and the isolated
/// HIT count from the span alone.
struct EpochClassSpan {
  int64_t epoch = 0;
  AmtCostModel pricing;
  /// (query id, slots this query contributed), ascending query id.
  std::vector<std::pair<int, int64_t>> query_slots;
  int64_t slots = 0;        ///< Σ query_slots
  int64_t packed_hits = 0;  ///< pricing.PackedHitCount(slots)
  /// Σ_q pricing.PackedHitCount(slots_q) — what the same questions cost
  /// as isolated per-query rounds; ≥ packed_hits by the ceiling inequality.
  int64_t isolated_hits = 0;
};

/// \brief Packs paid questions from concurrent queries into shared HITs.
class HitPacker {
 public:
  HitPacker() = default;
  CROWDSKY_DISALLOW_COPY(HitPacker);

  /// Registers `slots` paid question slots (pair attempts or unary
  /// questions) for `query_id` in the open epoch, priced by the query's
  /// effective cost model.
  void RegisterSlot(int query_id, const AmtCostModel& pricing,
                    int64_t slots = 1);

  /// Closes the open epoch: greedily fills HITs per pack class and
  /// appends one EpochClassSpan per non-empty class. An epoch with no
  /// registered slots closes without a trace and costs nothing.
  /// Returns the HITs packed in this epoch.
  int64_t CloseEpoch();

  /// True iff slots were registered since the last CloseEpoch().
  bool open_epoch_nonempty() const { return !open_.empty(); }

  // --- ledger ------------------------------------------------------------

  /// Every closed (epoch, pack class) span, in close order.
  const std::vector<EpochClassSpan>& spans() const { return spans_; }
  /// Epochs that actually carried questions.
  int64_t epochs() const { return epochs_; }
  int64_t slots_total() const { return slots_total_; }
  int64_t packed_hits() const { return packed_hits_; }
  /// What the same spans would have cost as isolated per-query rounds.
  int64_t isolated_hits() const { return isolated_hits_; }
  /// Dollar figures, computed once per call from the integer HIT ledgers
  /// (one multiply per span — no running dollar accumulation in the
  /// packing hot path).
  double packed_cost_usd() const;
  double isolated_cost_usd() const;

  /// Slots registered for one query across all epochs (0 if unknown id).
  int64_t slots_for_query(int query_id) const;

 private:
  /// Open epoch: pack class -> query id -> slots. std::map keeps every
  /// iteration deterministic regardless of registration order.
  std::map<AmtCostModel, std::map<int, int64_t>, PackClassLess> open_;
  std::vector<EpochClassSpan> spans_;
  std::map<int, int64_t> slots_per_query_;
  int64_t epochs_ = 0;
  int64_t slots_total_ = 0;
  int64_t packed_hits_ = 0;
  int64_t isolated_hits_ = 0;
};

}  // namespace crowdsky::service
