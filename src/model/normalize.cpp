#include "model/normalize.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "base/contracts.h"
#include "model/path_algebra.h"

namespace tfa::model {

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

/// Calls visit(f, i) for every ordered pair of distinct flows whose paths
/// share at least two nodes, generated from the node -> flows index in
/// O(sum_h |flows at h|^2) rather than by walking all n^2 pairs.  Stops
/// early, returning false, as soon as a visit returns false.
///
/// The pairs left out cannot matter to Assumption 1.  When P_f meets P_i
/// in at most one node, the scan of P_f in first_violation() and
/// violation_positions() sees at most one position on P_i: one run of
/// length one, with no step to set or reverse a direction and no second
/// run to re-enter.  Such a pair yields no violation and no cut, so
/// skipping it leaves the verdict, every round's cut sets and hence the
/// whole NormalisationReport unchanged (docs/math.md, "Which pairs
/// Assumption 1 can see").  The cut sets are std::sets, so the order in
/// which pairs are visited does not matter either.
template <typename Visit>
bool for_each_overlapping_pair(const FlowSet& set, Visit&& visit) {
  const std::vector<std::vector<FlowIndex>> by_node = flows_by_node(set);
  std::vector<std::uint32_t> shared(set.size(), 0);
  std::vector<FlowIndex> met;
  for (std::size_t f = 0; f < set.size(); ++f) {
    const auto ff = static_cast<FlowIndex>(f);
    met.clear();
    for (const NodeId h : set.flow(ff).path().nodes())
      for (const FlowIndex i : by_node[static_cast<std::size_t>(h)])
        if (i != ff && shared[static_cast<std::size_t>(i)]++ == 0)
          met.push_back(i);
    bool go = true;
    for (const FlowIndex i : met) {
      if (go && shared[static_cast<std::size_t>(i)] >= 2) go = visit(ff, i);
      shared[static_cast<std::size_t>(i)] = 0;
    }
    if (!go) return false;
  }
  return true;
}

/// Per-node load sum_j C_j^h of `set`: the per-hop term of the crude
/// split-jitter bound.
std::vector<Duration> node_loads(const FlowSet& set) {
  std::vector<Duration> load(
      static_cast<std::size_t>(set.network().node_count()), 0);
  for (const SporadicFlow& f : set.flows())
    for (std::size_t k = 0; k < f.path().size(); ++k) {
      const auto hu = static_cast<std::size_t>(f.path().at(k));
      if (hu >= load.size()) load.resize(hu + 1, 0);
      load[hu] += f.cost_at_position(k);
    }
  return load;
}

/// Crude conservative bound on the extra arrival uncertainty accumulated
/// over the first `k` hops of `flow`: one packet of every flow sharing
/// each hop (`load`, from node_loads()) plus the per-link slack.
Duration crude_prefix_jitter(const FlowSet& set,
                             const std::vector<Duration>& load,
                             const SporadicFlow& flow, std::size_t k) {
  Duration j = 0;
  for (std::size_t p = 0; p < k; ++p) {
    const NodeId h = flow.path().at(p);
    j += load[static_cast<std::size_t>(h)];
    if (p + 1 < flow.path().size()) {
      const NodeId next = flow.path().at(p + 1);
      j += set.network().link_lmax(h, next) - set.network().link_lmin(h, next);
    }
  }
  return j;
}

}  // namespace

bool satisfies_assumption1(const FlowSet& set) {
  return for_each_overlapping_pair(set, [&](FlowIndex j, FlowIndex i) {
    return !first_violation(set.flow(i).path(), set.flow(j).path());
  });
}

// The normalisation is *canonical*: every round computes, from one
// snapshot of the current paths, every cut position of every flow (a
// symmetric function of the path multiset), then applies all cuts at
// once.  The result therefore does not depend on the order in which the
// flows are listed — an invariant the analyses rely on
// (tests/integration/invariants_test.cpp).
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
    // every other path it shares two or more nodes with.
    const std::size_t n = fs.size();
    std::vector<std::set<std::size_t>> cuts(n);
    for_each_overlapping_pair(fs, [&](FlowIndex f, FlowIndex i) {
      violation_positions(fs.flow(i).path(), fs.flow(f).path(),
                          cuts[static_cast<std::size_t>(f)]);
      return true;
    });

    // The crude split jitter reads the snapshot's per-node load.  It is
    // also the load of the set while the cuts below are applied: every
    // split replaces a path by segments that partition it, and a tail's
    // jitter is computed over the prefix its head and earlier tails
    // already cover.
    const std::vector<Duration> load =
        policy == SplitJitterPolicy::kInflateCrude ? node_loads(fs)
                                                   : std::vector<Duration>{};

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
                : original.jitter() +
                      crude_prefix_jitter(fs, load, original, from);
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

  TFA_ENSURES(satisfies_assumption1(report.flow_set));
  return report;
}

}  // namespace tfa::model
