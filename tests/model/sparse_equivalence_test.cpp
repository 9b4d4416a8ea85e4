// Equivalence sweep: the node-indexed model layer against the all-pairs
// references of dense_reference.h.
//
// FlowSetGeometry, normalise(), satisfies_assumption1() and
// trajectory::non_preemption_delay() visit only flow pairs that share a
// node (two nodes, for Assumption 1).  Over random sets of several sizes,
// every proptest corner family and the hand-built non-compliant fixtures,
// this asserts they agree with the references on every pair, prefix and
// quantifier, and on the whole NormalisationReport.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "dense_reference.h"
#include "model/generators.h"
#include "model/serialize.h"
#include "trajectory/delta.h"

namespace tfa::model {
namespace {

std::string pair_mismatch(const PairGeometry& a, const PairGeometry& b) {
  std::ostringstream out;
  if (a.intersects != b.intersects) out << " intersects";
  if (a.first_ji != b.first_ji) out << " first_ji";
  if (a.last_ji != b.last_ji) out << " last_ji";
  if (a.first_ij != b.first_ij) out << " first_ij";
  if (a.last_ij != b.last_ij) out << " last_ij";
  if (a.same_direction != b.same_direction) out << " same_direction";
  if (a.slow_ji != b.slow_ji) out << " slow_ji";
  if (a.c_slow_ji != b.c_slow_ji) out << " c_slow_ji";
  return out.str();
}

/// The first disagreement between the sparse geometry of `set` and the
/// dense reference, or "" when they agree on every pair, prefix, mask and
/// quantifier.  The mask keeps two flows in three, as an EF mask would.
std::string geometry_mismatch(const FlowSet& set) {
  const FlowSetGeometry geo(set);
  const dense::Geometry ref(set);
  const std::size_t n = set.size();
  std::vector<bool> mask(n);
  for (std::size_t j = 0; j < n; ++j) mask[j] = j % 3 != 1;

  std::ostringstream where;
  for (std::size_t iu = 0; iu < n; ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    const std::size_t len = set.flow(i).path().size();
    where.str("");
    where << "flow " << i;
    if (geo.interferers(i) != ref.interferers(i))
      return where.str() + ": interferers";
    for (std::size_t ju = 0; ju < n; ++ju) {
      const auto j = static_cast<FlowIndex>(ju);
      const std::string d = pair_mismatch(geo.pair(i, j), ref.pair(i, j));
      if (!d.empty())
        return where.str() + " vs " + std::to_string(j) + ": pair" + d;
    }
    for (std::size_t prefix = 1; prefix <= len; ++prefix) {
      where.str("");
      where << "flow " << i << " prefix " << prefix;
      for (std::size_t ju = 0; ju < n; ++ju) {
        const auto j = static_cast<FlowIndex>(ju);
        const std::string d =
            pair_mismatch(geo.pair(i, j, prefix), ref.pair(i, j, prefix));
        if (!d.empty())
          return where.str() + " vs " + std::to_string(j) + ": pair" + d;
      }
      if (geo.interferers(i, prefix) != ref.interferers(i, prefix))
        return where.str() + ": interferers";
      for (std::size_t pos = 0; pos < prefix; ++pos) {
        const std::string at = where.str() + " pos " + std::to_string(pos);
        if (geo.m_term(i, pos, prefix) != ref.m_term(i, pos, prefix))
          return at + ": m_term";
        if (geo.max_joiner_cost(i, pos, prefix) !=
            ref.max_joiner_cost(i, pos, prefix))
          return at + ": max_joiner_cost";
        if (geo.max_joiner_cost(i, pos, prefix, &mask) !=
            ref.max_joiner_cost(i, pos, prefix, &mask))
          return at + ": masked max_joiner_cost";
        if (mask[iu] && geo.m_term(i, pos, prefix, &mask) !=
                            ref.m_term(i, pos, prefix, &mask))
          return at + ": masked m_term";
      }
      if (mask[iu] &&
          trajectory::non_preemption_delay(geo, i, prefix, mask) !=
              dense::non_preemption_delay(ref, set, i, prefix, mask))
        return where.str() + ": non_preemption_delay";
    }
  }
  return "";
}

/// The first disagreement between normalise() and the dense reference
/// under `policy`, or "".
std::string normalisation_mismatch(const FlowSet& set,
                                   SplitJitterPolicy policy) {
  const NormalisationReport got = normalise(set, policy);
  const NormalisationReport want = dense::normalise(set, policy);
  if (serialize_flow_set(got.flow_set) != serialize_flow_set(want.flow_set))
    return "flow_set";
  if (got.segments != want.segments) return "segments";
  if (got.origin != want.origin) return "origin";
  if (got.split_count != want.split_count) return "split_count";
  return "";
}

/// Checks the whole model layer on `set`: the Assumption-1 verdict, both
/// jitter policies of the normaliser, and the geometry of the raw and the
/// normalised set.
void expect_equivalent(const FlowSet& set, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(satisfies_assumption1(set), dense::satisfies_assumption1(set));
  EXPECT_EQ(normalisation_mismatch(set, SplitJitterPolicy::kKeepOriginal), "");
  EXPECT_EQ(normalisation_mismatch(set, SplitJitterPolicy::kInflateCrude), "");
  EXPECT_EQ(geometry_mismatch(set), "");
  const FlowSet normalised = normalise(set).flow_set;
  EXPECT_TRUE(dense::satisfies_assumption1(normalised));
  EXPECT_EQ(geometry_mismatch(normalised), "");
}

TEST(SparseEquivalence, RandomSetsOfSeveralSizes) {
  struct Size {
    std::int32_t nodes, flows, min_path, max_path;
  };
  // From few nodes (heavy path overlap, many cascaded splits) to the
  // sparse many-node shape of the 2000-flow benchmark, scaled down.
  const Size sizes[] = {{5, 10, 2, 5}, {8, 30, 2, 6}, {16, 80, 2, 5},
                        {48, 200, 2, 4}};
  for (const Size& s : sizes)
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RandomConfig cfg;
      cfg.nodes = s.nodes;
      cfg.flows = s.flows;
      cfg.min_path = s.min_path;
      cfg.max_path = s.max_path;
      Rng rng(seed);
      expect_equivalent(make_random(cfg, rng),
                        "random nodes=" + std::to_string(s.nodes) +
                            " flows=" + std::to_string(s.flows) +
                            " seed=" + std::to_string(seed));
    }
}

TEST(SparseEquivalence, EveryCornerFamily) {
  for (std::int32_t fam = 0; fam < kCornerFamilyCount; ++fam)
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CornerConfig cfg;
      cfg.base.nodes = 7;
      cfg.base.flows = 14;
      cfg.family = static_cast<CornerFamily>(fam);
      Rng rng(Rng::stream_key(seed, static_cast<std::uint64_t>(fam)));
      expect_equivalent(make_corner(cfg, rng),
                        std::string(to_string(cfg.family)) +
                            " seed=" + std::to_string(seed));
    }
}

TEST(SparseEquivalence, NonCompliantFixtures) {
  // The re-entry, zig-zag and cascaded fixtures of normalize_test.cpp.
  FlowSet reentry(Network(8, 1, 1));
  reentry.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  reentry.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  expect_equivalent(reentry, "re-entry");

  FlowSet zigzag(Network(6, 1, 1));
  zigzag.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  zigzag.add(SporadicFlow("j", Path{0, 2, 1, 5}, 100, 4, 0, 400));
  expect_equivalent(zigzag, "zig-zag");

  FlowSet cascaded(Network(12, 1, 1));
  cascaded.add(SporadicFlow("a", Path{0, 1, 2, 3, 4}, 100, 4, 0, 900));
  cascaded.add(SporadicFlow("b", Path{5, 6, 7, 8, 9}, 100, 4, 0, 900));
  cascaded.add(SporadicFlow("w", Path{0, 5, 1, 6, 2, 7}, 100, 4, 0, 900));
  expect_equivalent(cascaded, "cascaded");
}

}  // namespace
}  // namespace tfa::model
