// All-pairs reference implementations of the model layer, kept with the
// tests that consume them.
//
// The production geometry and Assumption-1 normaliser generate flow pairs
// from a node -> flows index and visit only coupled pairs.  These
// references walk every ordered pair of the n flows, exactly as the
// model layer once did, so an equivalence sweep can assert that skipping
// the uncoupled pairs changes nothing: the same pair geometry, the same
// min/max quantifiers, the same verdict and the same normalised set.
// They are quadratic by design; use them on small sets only.
#pragma once

#include <cstddef>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "model/normalize.h"
#include "model/path_algebra.h"

namespace tfa::model::dense {

/// Dense-table pair geometry: an n x n PairGeometry table, with every
/// quantifier evaluated over all n flows.
class Geometry {
 public:
  explicit Geometry(const FlowSet& set);

  [[nodiscard]] std::ptrdiff_t position(FlowIndex i, NodeId node) const;
  [[nodiscard]] PairGeometry pair(FlowIndex i, FlowIndex j,
                                  std::size_t prefix_i) const;
  [[nodiscard]] const PairGeometry& pair(FlowIndex i, FlowIndex j) const;
  [[nodiscard]] Duration m_term(FlowIndex i, std::size_t pos,
                                std::size_t prefix_i,
                                const std::vector<bool>* mask = nullptr) const;
  [[nodiscard]] Duration max_joiner_cost(
      FlowIndex i, std::size_t pos, std::size_t prefix_i,
      const std::vector<bool>* mask = nullptr) const;
  [[nodiscard]] std::vector<FlowIndex> interferers(FlowIndex i,
                                                   std::size_t prefix_i) const;
  [[nodiscard]] const std::vector<FlowIndex>& interferers(FlowIndex i) const;

 private:
  [[nodiscard]] PairGeometry compute_pair(FlowIndex i, FlowIndex j,
                                          std::size_t prefix_i) const;

  const FlowSet* set_;
  std::vector<PairGeometry> full_pairs_;  // [i * n + j]
  std::vector<std::vector<FlowIndex>> full_interferers_;
};

/// Lemma 4's non-preemption delay with the blocker scan over all n flows.
[[nodiscard]] Duration non_preemption_delay(const Geometry& geo,
                                            const FlowSet& set, FlowIndex i,
                                            std::size_t prefix,
                                            const std::vector<bool>& ef_mask);

/// Assumption 1 checked on every ordered pair of distinct flows.
[[nodiscard]] bool satisfies_assumption1(const FlowSet& set);

/// The canonical normaliser, every round cutting each flow against every
/// other path of the round's snapshot.
[[nodiscard]] NormalisationReport normalise(
    const FlowSet& set,
    SplitJitterPolicy policy = SplitJitterPolicy::kKeepOriginal);

}  // namespace tfa::model::dense
