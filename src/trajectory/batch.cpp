#include "trajectory/batch.h"

#include <utility>

#include "base/contracts.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

namespace {

/// FNV-1a over the mixed-in words; enough to detect accidental reuse of a
/// cache against a different problem (not a cryptographic guarantee).
class Fnv {
 public:
  void mix(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (byte * 8)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  void mix(const std::string& s) noexcept {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    mix(s.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Identity of one (normalised) flow as far as the Smax fixed point is
/// concerned: route, per-position costs, period, jitter, class.  The
/// deadline is deliberately excluded — it only affects verdicts, never
/// the table, so a deadline-only change keeps warm starts sound.
std::uint64_t flow_fingerprint(const model::SporadicFlow& f) {
  Fnv h;
  h.mix(f.name());
  for (const NodeId node : f.path().nodes()) h.mix(static_cast<std::uint64_t>(node));
  for (const Duration c : f.costs()) h.mix(static_cast<std::uint64_t>(c));
  h.mix(static_cast<std::uint64_t>(f.period()));
  h.mix(static_cast<std::uint64_t>(f.jitter()));
  h.mix(static_cast<std::uint64_t>(f.service_class()));
  return h.value();
}

/// Everything besides the flows that shapes the fixed point: the network
/// and the analysis configuration (workers excluded — it never changes
/// the result).
std::uint64_t context_fingerprint(const model::Network& net,
                                  const Config& cfg) {
  Fnv h;
  h.mix(static_cast<std::uint64_t>(net.node_count()));
  h.mix(static_cast<std::uint64_t>(net.lmin()));
  h.mix(static_cast<std::uint64_t>(net.lmax()));
  for (const auto& [link, bounds] : net.link_overrides()) {
    h.mix(static_cast<std::uint64_t>(link.first));
    h.mix(static_cast<std::uint64_t>(link.second));
    h.mix(static_cast<std::uint64_t>(bounds.first));
    h.mix(static_cast<std::uint64_t>(bounds.second));
  }
  h.mix(static_cast<std::uint64_t>(cfg.smax_semantics));
  h.mix(static_cast<std::uint64_t>(cfg.ef_mode));
  h.mix(static_cast<std::uint64_t>(cfg.split_jitter));
  h.mix(static_cast<std::uint64_t>(cfg.divergence_ceiling));
  h.mix(cfg.max_smax_iterations);
  h.mix(static_cast<std::uint64_t>(cfg.exhaustive_sweep_limit));
  h.mix(static_cast<std::uint64_t>(cfg.max_sweep_candidates));
  // The kernel choice is mixed in defensively even though kScalar and
  // kSoa are bit-identical today: a warm start must never survive into a
  // kernel whose equivalence proof has been invalidated by a future edit.
  h.mix(static_cast<std::uint64_t>(cfg.kernel));
  return h.value();
}

/// Whether `flow` belongs to the analysed FIFO aggregate under `cfg`
/// (mirrors the engine's default roles: everyone in Property 2, EF flows
/// only in Property 3).
bool analysable_under(const model::SporadicFlow& flow, const Config& cfg) {
  return !cfg.ef_mode || model::is_ef(flow.service_class());
}

}  // namespace

Duration AnalysisCache::busy_period(const std::string& name) const {
  const auto it = rows_.find(name);
  return it == rows_.end() ? kInfiniteDuration : it->second.busy_period;
}

void AnalysisCache::clear() {
  rows_.clear();
  context_ = 0;
}

std::vector<const std::vector<Duration>*> AnalysisCache::seed_rows(
    const model::FlowSet& fs, const model::Network& net, const Config& cfg,
    EngineStats& stats) const {
  if (rows_.empty()) return {};
  const std::size_t n = fs.size();

  // ---- Warm-start validity: every cached row must correspond to an
  // unchanged flow of the new normalised set, i.e. the cached run covered
  // a SUBSET of the new flows under the same network/config.  Then the
  // cached table underestimates the new least fixed point (adding flows
  // only adds interference) and remains a pre-fixed point — the
  // monotonicity argument in docs/math.md.  A removal or modification
  // breaks the subset relation, so the whole cache is discarded.
  bool warm = context_ == context_fingerprint(net, cfg);
  if (warm) {
    for (const auto& [name, row] : rows_) {
      const auto idx = fs.find(name);
      if (!idx || flow_fingerprint(fs.flow(*idx)) != row.fingerprint) {
        warm = false;
        break;
      }
    }
  }
  if (!warm) {
    // Invalidated: every analysable flow restarts from the cold seed.
    for (std::size_t i = 0; i < n; ++i)
      if (analysable_under(fs.flow(static_cast<FlowIndex>(i)), cfg))
        ++stats.cache_misses;
    return {};
  }

  // Seed rows resolved up front so the engine's hook is just a lookup.
  std::vector<const std::vector<Duration>*> seed(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const model::SporadicFlow& f = fs.flow(static_cast<FlowIndex>(i));
    if (!analysable_under(f, cfg)) continue;
    const auto it = rows_.find(f.name());
    if (it != rows_.end() && !it->second.smax.empty()) {
      TFA_ASSERT(it->second.smax.size() == f.path().size());
      seed[i] = &it->second.smax;
      ++stats.cache_hits;
    } else {
      ++stats.cache_misses;  // newly added flow: cold row
    }
  }
  return seed;
}

void AnalysisCache::refresh(const model::FlowSet& fs, const model::Network& net,
                            const Config& cfg, const Engine& engine) {
  // Unconverged tables are cached too: every Kleene iterate from a
  // pre-fixed point is itself a pre-fixed point, so they stay sound warm
  // seeds.  Background flows (EF mode) carry no Smax row but ARE
  // fingerprinted — their removal lowers the delta term, so it must
  // invalidate the cache like any other removal.
  rows_.clear();
  context_ = context_fingerprint(net, cfg);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const model::SporadicFlow& f = fs.flow(fi);
    Row row;
    row.fingerprint = flow_fingerprint(f);
    if (engine.analysable(fi)) {
      row.smax.reserve(f.path().size());
      for (std::size_t k = 0; k < f.path().size(); ++k)
        row.smax.push_back(engine.smax(fi, k));
      row.busy_period = engine.bound(fi).busy_period;
    }
    rows_.emplace(f.name(), std::move(row));
  }
}

Result reanalyze_with(const model::FlowSet& set, AnalysisCache& cache,
                      const Config& cfg, obs::Telemetry* telemetry) {
  return detail::run(set, cfg, &cache, telemetry, "trajectory.reanalyze");
}

}  // namespace tfa::trajectory
