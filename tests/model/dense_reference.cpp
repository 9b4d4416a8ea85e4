#include "dense_reference.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "base/checked.h"
#include "base/contracts.h"
#include "base/math.h"

namespace tfa::model::dense {

namespace {

/// Returns the position in P_j at which tau_j violates Assumption 1
/// relative to P_i (start of a second run on P_i, or a direction change
/// inside the shared segment), or nullopt when compliant.
std::optional<std::size_t> first_violation(const Path& pi, const Path& pj) {
  bool seen_run = false;      // a completed shared run exists
  bool in_run = false;
  std::ptrdiff_t prev_pos = -1;
  int direction = 0;          // 0 unknown, +1 forward along P_i, -1 backward

  for (std::size_t k = 0; k < pj.size(); ++k) {
    const std::ptrdiff_t p = pi.index_of(pj.at(k));
    if (p < 0) {
      if (in_run) {
        in_run = false;
        seen_run = true;
      }
      continue;
    }
    if (!in_run) {
      if (seen_run) return k;  // re-entry into P_i: second run starts here
      in_run = true;
      prev_pos = p;
      direction = 0;
      continue;
    }
    const int step = p > prev_pos ? +1 : -1;
    if (direction == 0) {
      direction = step;
    } else if (step != direction) {
      return k;  // zig-zag inside the shared segment
    }
    prev_pos = p;
  }
  return std::nullopt;
}

/// Every position at which P_f must be cut to satisfy Assumption 1
/// relative to P_i — the generalisation of first_violation that keeps
/// scanning, treating each cut as the start of a fresh flow.
void violation_positions(const Path& pi, const Path& pf,
                         std::set<std::size_t>& cuts) {
  bool seen_run = false;
  bool in_run = false;
  std::ptrdiff_t prev_pos = -1;
  int direction = 0;

  for (std::size_t k = 0; k < pf.size(); ++k) {
    const std::ptrdiff_t p = pi.index_of(pf.at(k));
    if (p < 0) {
      if (in_run) {
        in_run = false;
        seen_run = true;
      }
      continue;
    }
    if (!in_run) {
      if (seen_run) {
        cuts.insert(k);  // re-entry: the tail starts a fresh flow here
        seen_run = false;
      }
      in_run = true;
      prev_pos = p;
      direction = 0;
      continue;
    }
    const int step = p > prev_pos ? +1 : -1;
    if (direction == 0) {
      direction = step;
    } else if (step != direction) {
      cuts.insert(k);  // zig-zag: cut and restart the scan state here
      prev_pos = p;
      direction = 0;
      seen_run = false;
      continue;
    }
    prev_pos = p;
  }
}

/// Crude conservative bound on the extra arrival uncertainty accumulated
/// over the first `k` hops of `flow`: one packet of every flow sharing
/// each hop plus the per-link slack.
Duration crude_prefix_jitter(const FlowSet& set, const SporadicFlow& flow,
                             std::size_t k) {
  Duration j = 0;
  for (std::size_t p = 0; p < k; ++p) {
    const NodeId h = flow.path().at(p);
    for (const SporadicFlow& other : set.flows()) j += other.cost_on(h);
    if (p + 1 < flow.path().size()) {
      const NodeId next = flow.path().at(p + 1);
      j += set.network().link_lmax(h, next) - set.network().link_lmin(h, next);
    }
  }
  return j;
}

}  // namespace

Geometry::Geometry(const FlowSet& set) : set_(&set) {
  const std::size_t n = set.size();
  full_pairs_.resize(n * n);
  full_interferers_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const std::size_t len = set.flow(fi).path().size();
    for (std::size_t j = 0; j < n; ++j) {
      const auto fj = static_cast<FlowIndex>(j);
      full_pairs_[i * n + j] = compute_pair(fi, fj, len);
      if (i != j && full_pairs_[i * n + j].intersects)
        full_interferers_[i].push_back(fj);
    }
  }
}

std::ptrdiff_t Geometry::position(FlowIndex i, NodeId node) const {
  return set_->flow(i).path().index_of(node);
}

PairGeometry Geometry::compute_pair(FlowIndex i, FlowIndex j,
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

PairGeometry Geometry::pair(FlowIndex i, FlowIndex j,
                            std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  if (prefix_i == len) return pair(i, j);
  return compute_pair(i, j, prefix_i);
}

const PairGeometry& Geometry::pair(FlowIndex i, FlowIndex j) const {
  const std::size_t n = set_->size();
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < n);
  TFA_EXPECTS(j >= 0 && static_cast<std::size_t>(j) < n);
  return full_pairs_[static_cast<std::size_t>(i) * n +
                     static_cast<std::size_t>(j)];
}

Duration Geometry::m_term(FlowIndex i, std::size_t pos,
                          std::size_t prefix_i,
                          const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || (mask->size() == set_->size() &&
                                  (*mask)[static_cast<std::size_t>(i)]));
  const std::size_t n = set_->size();

  Duration total = 0;
  for (std::size_t k = 0; k < pos; ++k) {
    const NodeId h = fi.path().at(k);
    // Minimum processing time at h among same-direction flows visiting it.
    // tau_i itself always qualifies, so the min is over a non-empty set.
    Duration mn = std::numeric_limits<Duration>::max();
    for (std::size_t j = 0; j < n; ++j) {
      if (mask != nullptr && !(*mask)[j]) continue;
      const auto fj = static_cast<FlowIndex>(j);
      const std::ptrdiff_t pj = position(fj, h);
      if (pj < 0) continue;
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

Duration Geometry::max_joiner_cost(FlowIndex i, std::size_t pos,
                                   std::size_t prefix_i,
                                   const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || mask->size() == set_->size());
  const NodeId h = fi.path().at(pos);
  const std::size_t n = set_->size();

  Duration mx = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (mask != nullptr && !(*mask)[j]) continue;
    const auto fj = static_cast<FlowIndex>(j);
    const std::ptrdiff_t pj = position(fj, h);
    if (pj < 0) continue;
    const PairGeometry g = pair(i, fj, prefix_i);
    if (!g.intersects || !g.same_direction) continue;
    mx = std::max(mx,
                  set_->flow(fj).cost_at_position(static_cast<std::size_t>(pj)));
  }
  return mx;
}

std::vector<FlowIndex> Geometry::interferers(FlowIndex i,
                                             std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  if (prefix_i == len) return full_interferers_[static_cast<std::size_t>(i)];
  std::vector<FlowIndex> out;
  const std::size_t n = set_->size();
  for (std::size_t j = 0; j < n; ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj == i) continue;
    if (pair(i, fj, prefix_i).intersects) out.push_back(fj);
  }
  return out;
}

const std::vector<FlowIndex>& Geometry::interferers(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 &&
              static_cast<std::size_t>(i) < full_interferers_.size());
  return full_interferers_[static_cast<std::size_t>(i)];
}

Duration non_preemption_delay(const Geometry& geo, const FlowSet& set,
                              FlowIndex i, std::size_t prefix,
                              const std::vector<bool>& ef_mask) {
  TFA_EXPECTS(ef_mask.size() == set.size());
  TFA_EXPECTS(ef_mask[static_cast<std::size_t>(i)]);
  const SporadicFlow& fi = set.flow(i);
  TFA_EXPECTS(prefix >= 1 && prefix <= fi.path().size());

  const std::size_t n = set.size();

  Duration delta = 0;
  for (std::size_t pos = 0; pos < prefix; ++pos) {
    const NodeId h = fi.path().at(pos);

    Duration worst = 0;  // the (.)^+ of an empty max is 0
    for (std::size_t j = 0; j < n; ++j) {
      if (ef_mask[j]) continue;  // only non-EF traffic blocks
      const auto fj = static_cast<FlowIndex>(j);
      const std::ptrdiff_t pj = geo.position(fj, h);
      if (pj < 0) continue;
      const PairGeometry g = geo.pair(i, fj, prefix);
      TFA_ASSERT(g.intersects);

      const Duration cj =
          set.flow(fj).cost_at_position(static_cast<std::size_t>(pj));
      Duration blocking;
      if (pos == 0) {
        // At the ingress every non-EF flow crossing the node can block m.
        // (Lemma 4's first term quantifies only over first_{j,i} =
        // first_i, which misses a reverse-direction background flow that
        // entered P_i elsewhere and crosses the ingress later; the
        // simulator exhibits that blocking, so we close the gap — see
        // EXPERIMENTS.md "Lemma 4 ingress term".)
        blocking = cj - 1;
      } else if (g.first_ji == h || !g.same_direction) {
        // Cases 1 and 2 of Lemma 4: the blocking packet reaches h without
        // having queued behind m before.
        blocking = cj - 1;
      } else {
        // Case 3: the blocking packet travels with m; it left pre_i(h) at
        // the latest when m did, so only its residual service plus the
        // incoming link's delay spread can block.
        const NodeId prev = fi.path().at(pos - 1);
        blocking = cj - fi.cost_at_position(pos - 1) +
                   set.network().link_lmax(prev, h) -
                   set.network().link_lmin(prev, h);
      }
      worst = std::max(worst, blocking);
    }
    delta = sat_add(delta, pos_part(worst));
  }
  return delta;
}

bool satisfies_assumption1(const FlowSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i)
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (i == j) continue;
      if (first_violation(set.flow(static_cast<FlowIndex>(i)).path(),
                          set.flow(static_cast<FlowIndex>(j)).path()))
        return false;
    }
  return true;
}

NormalisationReport normalise(const FlowSet& set, SplitJitterPolicy policy) {
  NormalisationReport report;
  report.flow_set = set;
  FlowSet& fs = report.flow_set;

  report.segments.resize(set.size());
  report.origin.resize(set.size());
  for (std::size_t k = 0; k < set.size(); ++k) {
    report.segments[k] = {static_cast<FlowIndex>(k)};
    report.origin[k] = static_cast<FlowIndex>(k);
  }

  for (bool changed = true; changed;) {
    changed = false;

    // Snapshot the current paths, then compute every flow's cuts against
    // every other path.
    const std::size_t n = fs.size();
    std::vector<std::set<std::size_t>> cuts(n);
    for (std::size_t f = 0; f < n; ++f) {
      const Path& pf = fs.flow(static_cast<FlowIndex>(f)).path();
      for (std::size_t i = 0; i < n; ++i) {
        if (i == f) continue;
        violation_positions(fs.flow(static_cast<FlowIndex>(i)).path(), pf,
                            cuts[f]);
      }
    }

    // Apply all cuts (descending flow index keeps earlier indices valid;
    // appended tails join the next round).
    for (std::size_t f = 0; f < n; ++f) {
      if (cuts[f].empty()) continue;
      changed = true;
      const auto fidx = static_cast<FlowIndex>(f);
      const SporadicFlow original = fs.flow(fidx);
      const FlowIndex orig = report.origin[f];
      auto& chain = report.segments[static_cast<std::size_t>(orig)];
      auto chain_it = std::find(chain.begin(), chain.end(), fidx);
      TFA_ASSERT(chain_it != chain.end());

      // Segment boundaries: [0, c1), [c1, c2), ..., [ck, end).
      std::vector<std::size_t> bounds(cuts[f].begin(), cuts[f].end());
      TFA_ASSERT(!bounds.empty() && bounds.front() >= 1);

      // Head replaces the original in place.
      fs.replace(fidx, original.truncated_to_prefix(bounds.front()));

      // Tails are appended, chained after the head in path order.
      std::size_t insert_at =
          static_cast<std::size_t>(chain_it - chain.begin()) + 1;
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        const std::size_t from = bounds[b];
        const Duration tail_jitter =
            policy == SplitJitterPolicy::kKeepOriginal
                ? original.jitter()
                : original.jitter() + crude_prefix_jitter(fs, original, from);
        SporadicFlow tail = original.split_tail(from, tail_jitter);
        if (b + 1 < bounds.size()) {
          TFA_ASSERT(bounds[b + 1] > from);
          tail = tail.truncated_to_prefix(bounds[b + 1] - from);
        }
        // Unique segment names: one prime per preceding cut.
        const SporadicFlow named(
            original.name() + std::string(b + 1, '\''), tail.path(),
            tail.period(), tail.costs(), tail.jitter(), tail.deadline(),
            tail.service_class());
        const FlowIndex tail_index = fs.add(named);
        report.origin.push_back(orig);
        chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(insert_at++),
                     tail_index);
        ++report.split_count;
      }
    }
  }

  TFA_ENSURES(dense::satisfies_assumption1(report.flow_set));
  return report;
}

}  // namespace tfa::model::dense
