#include "model/path_algebra.h"

#include <algorithm>
#include <limits>

#include "base/contracts.h"

namespace tfa::model {

namespace {

/// The geometry of every disjoint pair.
constexpr PairGeometry kDisjoint{};

}  // namespace

std::vector<std::vector<FlowIndex>> flows_by_node(const FlowSet& set) {
  std::vector<std::vector<FlowIndex>> by_node(
      static_cast<std::size_t>(set.network().node_count()));
  for (std::size_t i = 0; i < set.size(); ++i)
    for (const NodeId h : set.flow(static_cast<FlowIndex>(i)).path().nodes()) {
      const auto hu = static_cast<std::size_t>(h);
      if (hu >= by_node.size()) by_node.resize(hu + 1);
      by_node[hu].push_back(static_cast<FlowIndex>(i));
    }
  return by_node;
}

FlowSetGeometry::FlowSetGeometry(const FlowSet& set)
    : set_(&set), by_node_(flows_by_node(set)) {
  const std::size_t n = set.size();
  const auto node_count = static_cast<std::size_t>(set.network().node_count());

  pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_[i].assign(node_count, -1);
    const Path& p = set.flow(static_cast<FlowIndex>(i)).path();
    for (std::size_t k = 0; k < p.size(); ++k) {
      const NodeId h = p.at(k);
      TFA_EXPECTS(static_cast<std::size_t>(h) < node_count);
      pos_[i][static_cast<std::size_t>(h)] = static_cast<std::ptrdiff_t>(k);
    }
  }

  // Interferers of i: the union of flows_at(h) over h on P_i, minus i.
  full_interferers_.resize(n);
  std::vector<char> seen(n, 0);
  std::size_t pair_count = n;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<FlowIndex>& nbrs = full_interferers_[i];
    for (const NodeId h : set.flow(static_cast<FlowIndex>(i)).path().nodes())
      for (const FlowIndex j : by_node_[static_cast<std::size_t>(h)]) {
        const auto ju = static_cast<std::size_t>(j);
        if (ju == i || seen[ju] != 0) continue;
        seen[ju] = 1;
        nbrs.push_back(j);
      }
    std::sort(nbrs.begin(), nbrs.end());
    for (const FlowIndex j : nbrs) seen[static_cast<std::size_t>(j)] = 0;
    pair_count += nbrs.size();
  }

  row_begin_.resize(n);
  full_pairs_.reserve(pair_count);
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const std::size_t len = set.flow(fi).path().size();
    row_begin_[i] = full_pairs_.size();
    full_pairs_.push_back(compute_pair(fi, fi, len));
    for (const FlowIndex j : full_interferers_[i]) {
      full_pairs_.push_back(compute_pair(fi, j, len));
      TFA_ASSERT(full_pairs_.back().intersects);
    }
  }
}

const std::vector<FlowIndex>& FlowSetGeometry::flows_at(NodeId node) const {
  TFA_EXPECTS(node >= 0 && static_cast<std::size_t>(node) < by_node_.size());
  return by_node_[static_cast<std::size_t>(node)];
}

std::ptrdiff_t FlowSetGeometry::position(FlowIndex i, NodeId node) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < pos_.size());
  TFA_EXPECTS(node >= 0 &&
              static_cast<std::size_t>(node) < pos_[static_cast<std::size_t>(i)].size());
  return pos_[static_cast<std::size_t>(i)][static_cast<std::size_t>(node)];
}

PairGeometry FlowSetGeometry::compute_pair(FlowIndex i, FlowIndex j,
                                           std::size_t prefix_i) const {
  const SporadicFlow& fi = set_->flow(i);
  const SporadicFlow& fj = set_->flow(j);
  TFA_EXPECTS(prefix_i >= 1 && prefix_i <= fi.path().size());

  PairGeometry g;

  // Walk P_j in tau_j's order, keeping nodes inside the truncated P_i.
  for (std::size_t k = 0; k < fj.path().size(); ++k) {
    const NodeId h = fj.path().at(k);
    const std::ptrdiff_t p = position(i, h);
    if (p < 0 || static_cast<std::size_t>(p) >= prefix_i) continue;
    if (g.first_ji == kNoNode) g.first_ji = h;
    g.last_ji = h;
    const Duration c = fj.cost_at_position(k);
    if (c > g.c_slow_ji) {
      g.c_slow_ji = c;
      g.slow_ji = h;
    }
  }
  if (g.first_ji == kNoNode) return g;  // no intersection
  g.intersects = true;

  // Walk the truncated P_i in tau_i's order, keeping nodes on P_j.
  for (std::size_t k = 0; k < prefix_i; ++k) {
    const NodeId h = fi.path().at(k);
    if (position(j, h) < 0) continue;
    if (g.first_ij == kNoNode) g.first_ij = h;
    g.last_ij = h;
  }
  TFA_ASSERT(g.first_ij != kNoNode);

  g.same_direction = (g.first_ji == g.first_ij);
  return g;
}

PairGeometry FlowSetGeometry::pair(FlowIndex i, FlowIndex j,
                                   std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  if (prefix_i == len) return pair(i, j);
  return compute_pair(i, j, prefix_i);
}

const PairGeometry& FlowSetGeometry::pair(FlowIndex i, FlowIndex j) const {
  const std::size_t n = set_->size();
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < n);
  TFA_EXPECTS(j >= 0 && static_cast<std::size_t>(j) < n);
  const auto iu = static_cast<std::size_t>(i);
  const PairGeometry* row = &full_pairs_[row_begin_[iu]];
  if (i == j) return row[0];
  const std::vector<FlowIndex>& nbrs = full_interferers_[iu];
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), j);
  if (it == nbrs.end() || *it != j) return kDisjoint;
  return row[1 + static_cast<std::size_t>(it - nbrs.begin())];
}

Duration FlowSetGeometry::smin(FlowIndex i, std::size_t pos) const {
  const SporadicFlow& f = set_->flow(i);
  TFA_EXPECTS(pos < f.path().size());
  Duration s = 0;
  for (std::size_t k = 0; k < pos; ++k)
    s += f.cost_at_position(k) +
         set_->network().link_lmin(f.path().at(k), f.path().at(k + 1));
  return s;
}

Duration FlowSetGeometry::m_term(FlowIndex i, std::size_t pos,
                                 std::size_t prefix_i,
                                 const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || (mask->size() == set_->size() &&
                                  (*mask)[static_cast<std::size_t>(i)]));

  Duration total = 0;
  for (std::size_t k = 0; k < pos; ++k) {
    const NodeId h = fi.path().at(k);
    // Minimum processing time at h among same-direction flows visiting it.
    // tau_i itself always qualifies, so the min is over a non-empty set.
    Duration mn = std::numeric_limits<Duration>::max();
    for (const FlowIndex fj : flows_at(h)) {
      if (mask != nullptr && !(*mask)[static_cast<std::size_t>(fj)]) continue;
      const std::ptrdiff_t pj = position(fj, h);
      const PairGeometry g = pair(i, fj, prefix_i);
      if (!g.intersects || !g.same_direction) continue;
      mn = std::min(mn,
                    set_->flow(fj).cost_at_position(static_cast<std::size_t>(pj)));
    }
    TFA_ASSERT(mn != std::numeric_limits<Duration>::max());
    total += mn + set_->network().link_lmin(h, fi.path().at(k + 1));
  }
  return total;
}

Duration FlowSetGeometry::max_joiner_cost(FlowIndex i, std::size_t pos,
                                          std::size_t prefix_i,
                                          const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || mask->size() == set_->size());
  const NodeId h = fi.path().at(pos);

  Duration mx = 0;
  for (const FlowIndex fj : flows_at(h)) {
    if (mask != nullptr && !(*mask)[static_cast<std::size_t>(fj)]) continue;
    const std::ptrdiff_t pj = position(fj, h);
    const PairGeometry g = pair(i, fj, prefix_i);
    if (!g.intersects || !g.same_direction) continue;
    mx = std::max(mx,
                  set_->flow(fj).cost_at_position(static_cast<std::size_t>(pj)));
  }
  return mx;
}

std::vector<FlowIndex> FlowSetGeometry::interferers(FlowIndex i,
                                                    std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  const std::vector<FlowIndex>& full = interferers(i);
  if (prefix_i == len) return full;
  // A flow that misses P_i misses every prefix of it too.
  std::vector<FlowIndex> out;
  for (const FlowIndex fj : full)
    if (pair(i, fj, prefix_i).intersects) out.push_back(fj);
  return out;
}

const std::vector<FlowIndex>& FlowSetGeometry::interferers(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 &&
              static_cast<std::size_t>(i) < full_interferers_.size());
  return full_interferers_[static_cast<std::size_t>(i)];
}

}  // namespace tfa::model
