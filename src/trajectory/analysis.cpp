#include "trajectory/analysis.h"

#include "base/checked.h"
#include "base/contracts.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/batch.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

namespace {

/// Maps a finished engine's per-segment bounds back onto the original
/// set's flows (composing Assumption-1 splits), with the per-hop profile
/// of every unsplit finite bound.
Result compose(const model::FlowSet& set, const Config& cfg,
               const model::NormalisationReport& norm, const Engine& engine) {
  Result result;
  result.converged = engine.converged();
  result.smax_iterations = engine.iterations();
  result.split_count = norm.split_count;

  bool all_ok = true;
  for (std::size_t orig = 0; orig < set.size(); ++orig) {
    const auto oi = static_cast<FlowIndex>(orig);
    const model::SporadicFlow& flow = set.flow(oi);
    if (cfg.ef_mode && !model::is_ef(flow.service_class())) continue;

    FlowBound b = detail::compose_flow(set, norm, engine, oi);
    // Per-hop profile (single-segment flows only: prefixes of a composed
    // flow are not prefixes of the original path).
    if (!b.composed && !is_infinite(b.response)) {
      const std::size_t len = flow.path().size();
      b.prefix_responses.reserve(len);
      for (std::size_t k = 1; k <= len; ++k)
        b.prefix_responses.push_back(
            engine.prefix_bound(norm.segments[orig][0], k).response);
    }
    all_ok = all_ok && b.schedulable;
    result.bounds.push_back(b);
  }

  result.all_schedulable = all_ok && !result.bounds.empty();
  return result;
}

}  // namespace

namespace detail {

FlowBound compose_flow(const model::FlowSet& set,
                       const model::NormalisationReport& norm,
                       const Engine& engine, FlowIndex orig) {
  const model::SporadicFlow& flow = set.flow(orig);
  const auto& segments = norm.segments[static_cast<std::size_t>(orig)];
  TFA_ASSERT(!segments.empty());

  FlowBound b;
  b.flow = orig;
  b.composed = segments.size() > 1;

  // Sum the per-segment trajectory bounds, plus one worst-case link
  // traversal per junction between consecutive segments.
  Duration total = 0;
  bool finite = true;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const PrefixBound& pb = engine.bound(segments[s]);
    if (!pb.finite() || !engine.converged()) {
      finite = false;
      break;
    }
    total = sat_add(total, pb.response);
    if (s + 1 < segments.size()) {
      const model::FlowSet& nfs = norm.flow_set;
      total = sat_add(total, set.network().link_lmax(
                                 nfs.flow(segments[s]).path().last(),
                                 nfs.flow(segments[s + 1]).path().first()));
    }
    b.delta += pb.delta;
    if (s == 0) {
      b.busy_period = pb.busy_period;
      b.critical_instant = pb.critical_instant;
    }
  }

  // A composition that saturated is divergent even if every segment
  // bound was individually finite.
  finite = finite && !is_infinite(total);
  b.response = finite ? total : kInfiniteDuration;
  b.schedulable = finite && b.response <= flow.deadline();
  b.jitter = finite
                 ? b.response - model::best_case_response(set.network(), flow)
                 : kInfiniteDuration;
  return b;
}

Result run(const model::FlowSet& set, const Config& cfg, AnalysisCache* cache,
           obs::Telemetry* telemetry, std::string_view span_name) {
  TFA_EXPECTS(!set.empty());
  obs::Span run_span = obs::span(telemetry, span_name);
  {
    obs::Span validate_span = obs::span(telemetry, "trajectory.validate");
    const auto issues = set.validate();
    TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());
  }

  const model::NormalisationReport norm = [&] {
    obs::Span norm_span = obs::span(telemetry, "trajectory.normalise");
    return model::normalise(set, cfg.split_jitter);
  }();

  // Result::stats is this run's own accounting, straight from the engine
  // plus the cache's hit/miss tally — never read back from `telemetry`,
  // which may accumulate across calls.
  EngineStats stats;
  EngineOptions opts;
  opts.stats = &stats;
  opts.telemetry = telemetry;
  std::vector<const std::vector<Duration>*> seed;
  if (cache != nullptr) {
    seed = cache->seed_rows(norm.flow_set, set.network(), cfg, stats);
    if (!seed.empty())
      opts.warm_seed = [&seed](FlowIndex i, std::size_t pos) {
        const auto* row = seed[static_cast<std::size_t>(i)];
        return row != nullptr ? (*row)[pos] : Duration{-1};
      };
    if (telemetry != nullptr) {
      telemetry->metrics.counter("trajectory.cache_hits") +=
          static_cast<std::int64_t>(stats.cache_hits);
      telemetry->metrics.counter("trajectory.cache_misses") +=
          static_cast<std::int64_t>(stats.cache_misses);
    }
  }

  const Engine engine(norm.flow_set, cfg, opts);
  if (cache != nullptr)
    cache->refresh(norm.flow_set, set.network(), cfg, engine);

  Result result = [&] {
    obs::Span compose_span = obs::span(telemetry, "trajectory.compose");
    return compose(set, cfg, norm, engine);
  }();
  result.stats = stats;
  return result;
}

}  // namespace detail

Result analyze(const model::FlowSet& set, const Config& cfg) {
  return detail::run(set, cfg, nullptr, nullptr, "trajectory.analyze");
}

Result analyze(const model::FlowSet& set, const Config& cfg,
               obs::Telemetry* telemetry) {
  return detail::run(set, cfg, nullptr, telemetry, "trajectory.analyze");
}

Duration response_bound(const model::FlowSet& set, FlowIndex i,
                        const Config& cfg) {
  const Result r = analyze(set, cfg);
  const FlowBound* b = r.find(i);
  TFA_EXPECTS(b != nullptr);
  return b->response;
}

}  // namespace tfa::trajectory
