#include "prefgraph/preference_graph.h"

#include <string>

namespace crowdsky {

PreferenceGraph::PreferenceGraph(int num_nodes, ContradictionPolicy policy)
    : n_(num_nodes), policy_(policy), scratch_(static_cast<size_t>(n_)) {
  CROWDSKY_CHECK(num_nodes >= 0);
  const auto un = static_cast<size_t>(n_);
  parent_.resize(un);
  desc_.assign(un, DynamicBitset(un));
  anc_.assign(un, DynamicBitset(un));
  members_.assign(un, DynamicBitset(un));
  for (int v = 0; v < n_; ++v) {
    parent_[static_cast<size_t>(v)] = v;
    members_[static_cast<size_t>(v)].Set(static_cast<size_t>(v));
  }
}

int PreferenceGraph::Find(int v) const {
  CROWDSKY_DCHECK(v >= 0 && v < n_);
  auto uv = static_cast<size_t>(v);
  while (parent_[uv] != static_cast<int>(uv)) {
    parent_[uv] = parent_[static_cast<size_t>(parent_[uv])];  // path halving
    uv = static_cast<size_t>(parent_[uv]);
  }
  return static_cast<int>(uv);
}

bool PreferenceGraph::Prefers(int u, int v) const {
  const auto ru = static_cast<size_t>(Find(u));
  const auto rv = static_cast<size_t>(Find(v));
  return ru != rv && desc_[ru].Test(rv);
}

bool PreferenceGraph::Equivalent(int u, int v) const {
  return Find(u) == Find(v);
}

namespace {

// Writes `self` and then the set bits of a & ~b into `out` (cleared first).
// `a_words` lists the nonzero words of a.
void CollectTargets(const DynamicBitset& a, const DynamicBitset& b,
                    const std::vector<uint32_t>& a_words, int self,
                    std::vector<int>* out) {
  out->clear();
  out->push_back(self);
  a.ForEachSetBitAndNot(b, a_words, [out](size_t i) {
    out->push_back(static_cast<int>(i));
  });
}

// rows[t] |= src, plus bit `endpoint`, for every t in `targets`, ORing only
// `src_words`, the nonzero words of src. Every closure OR goes through
// here. No target may be the row src itself.
void OrIntoRows(std::vector<DynamicBitset>& rows,
                const std::vector<int>& targets, const DynamicBitset& src,
                const std::vector<uint32_t>& src_words, size_t endpoint) {
  for (const int t : targets) {
    DynamicBitset& row = rows[static_cast<size_t>(t)];
    row.OrWords(src, src_words);
    row.Set(endpoint);
  }
}

}  // namespace

void PreferenceGraph::InsertEdgeClosure(int ru, int rv) {
  const auto u = static_cast<size_t>(ru);
  const auto v = static_cast<size_t>(rv);
  // Every ancestor of u (and u itself) now reaches v and v's descendants;
  // every descendant of v (and v itself) is now reached from u and u's
  // ancestors. Italiano's pruning: by the row invariant, an ancestor row
  // that already holds v already holds desc_[v], and a descendant row that
  // already holds u already holds anc_[u], so neither needs the OR. By the
  // transpose invariant the rows left are anc_[u] & ~anc_[v] and
  // desc_[v] & ~desc_[u]. Both sets are read before any write, since the
  // updates grow desc_[u] and anc_[v]. No target is a source row: v is not
  // an ancestor of u, nor u a descendant of v. The nonzero words of the two
  // source rows bound both the target scan and the ORs.
  anc_[u].NonzeroWords(&anc_words_);
  desc_[v].NonzeroWords(&desc_words_);
  CollectTargets(anc_[u], anc_[v], anc_words_, ru, &desc_targets_);
  CollectTargets(desc_[v], desc_[u], desc_words_, rv, &anc_targets_);
  OrIntoRows(desc_, desc_targets_, desc_[v], desc_words_, v);
  OrIntoRows(anc_, anc_targets_, anc_[u], anc_words_, u);
}

Status PreferenceGraph::AddPreference(int u, int v) {
  CROWDSKY_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  const int ru = Find(u);
  const int rv = Find(v);
  if (ru == rv || desc_[static_cast<size_t>(rv)].Test(
                      static_cast<size_t>(ru))) {
    // u and v already equal, or v already preferred over u.
    if (policy_ == ContradictionPolicy::kFail) {
      return Status::Contradiction(
          "preference " + std::to_string(u) + " < " + std::to_string(v) +
          " contradicts existing order");
    }
    ++contradictions_;
    return Status::OK();
  }
  if (desc_[static_cast<size_t>(ru)].Test(static_cast<size_t>(rv))) {
    return Status::OK();  // already implied
  }
  InsertEdgeClosure(ru, rv);
  ++edges_;
  return Status::OK();
}

Status PreferenceGraph::AddEquivalence(int u, int v) {
  CROWDSKY_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  const int ru = Find(u);
  const int rv = Find(v);
  if (ru == rv) return Status::OK();
  const auto sru = static_cast<size_t>(ru);
  const auto srv = static_cast<size_t>(rv);
  if (desc_[sru].Test(srv) || desc_[srv].Test(sru)) {
    if (policy_ == ContradictionPolicy::kFail) {
      return Status::Contradiction(
          "equivalence " + std::to_string(u) + " ~ " + std::to_string(v) +
          " contradicts a strict preference");
    }
    ++contradictions_;
    return Status::OK();
  }
  // Merge the class of `other` into the class of `rep`.
  const int rep = ru < rv ? ru : rv;
  const int other = ru < rv ? rv : ru;
  const auto srep = static_cast<size_t>(rep);
  const auto soth = static_cast<size_t>(other);
  parent_[soth] = rep;
  members_[srep].OrWith(members_[soth]);

  // Rewrite bit `other` -> `rep` in every row that referenced it, before
  // combining the rows themselves.
  anc_[soth].ForEachSetBit([this, soth, srep](size_t a) {
    desc_[a].Reset(soth);
    desc_[a].Set(srep);
  });
  desc_[soth].ForEachSetBit([this, soth, srep](size_t d) {
    anc_[d].Reset(soth);
    anc_[d].Set(srep);
  });
  desc_[srep].OrWith(desc_[soth]);
  anc_[srep].OrWith(anc_[soth]);
  desc_[soth].ClearAll();
  anc_[soth].ClearAll();

  // The merge can create new transitive paths (x -> ru merged with rv -> y
  // gives x -> y): propagate the combined rows outward. Every target row
  // already holds srep, so the endpoint bit changes nothing here.
  anc_[srep].ToVector(&desc_targets_);
  desc_[srep].ToVector(&anc_targets_);
  desc_[srep].NonzeroWords(&desc_words_);
  anc_[srep].NonzeroWords(&anc_words_);
  OrIntoRows(desc_, desc_targets_, desc_[srep], desc_words_, srep);
  OrIntoRows(anc_, anc_targets_, anc_[srep], anc_words_, srep);
  ++merges_;
  return Status::OK();
}

bool PreferenceGraph::AnyStrictlyPrefers(const DynamicBitset& ids,
                                         int v) const {
  CROWDSKY_DCHECK(ids.size() == static_cast<size_t>(n_));
  const auto rv = static_cast<size_t>(Find(v));
  if (merges_ == 0) {
    return anc_[rv].Intersects(ids);
  }
  // Translate the id mask into representative space.
  scratch_.ClearAll();
  ids.ForEachSetBit([this](size_t id) {
    scratch_.Set(static_cast<size_t>(Find(static_cast<int>(id))));
  });
  return anc_[rv].Intersects(scratch_);
}

bool PreferenceGraph::AnyWeaklyPrefers(const DynamicBitset& ids,
                                       int v) const {
  const auto rv = static_cast<size_t>(Find(v));
  // Some other member of v's class present in ids?
  if (members_[rv].IntersectionCount(ids) >
      (ids.Test(static_cast<size_t>(v)) ? 1u : 0u)) {
    return true;
  }
  return AnyStrictlyPrefers(ids, v);
}

}  // namespace crowdsky
