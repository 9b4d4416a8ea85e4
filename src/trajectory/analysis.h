// Public entry point of the trajectory analysis (the paper's primary
// contribution): computes worst-case end-to-end response-time bounds for a
// FlowSet under distributed FIFO scheduling (Property 2), or for its EF
// class over non-preemptable background traffic (Property 3).
//
// analyze() and the warm-starting reanalyze_with() (trajectory/batch.h)
// run one pipeline, detail::run(); analyze_fp_fifo() (trajectory/
// fp_fifo.h) composes split flows with the same detail::compose_flow().
#pragma once

#include <string_view>

#include "model/flow_set.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Analyses `set` and returns one FlowBound per analysed flow (all flows,
/// or only the EF flows when cfg.ef_mode).
///
/// Handles Assumption-1 violations by the paper's splitting recipe; a flow
/// that had to be split receives a composed bound (trajectory bound per
/// segment, summed across segments plus one link delay per junction) and
/// is flagged `composed`.
///
/// Precondition: `set.validate()` reports no issues and `set` is
/// non-empty.
[[nodiscard]] Result analyze(const model::FlowSet& set, const Config& cfg = {});

/// analyze() with an observability sink: spans ("trajectory.analyze" >
/// validate / normalise / engine / compose), convergence series, and the
/// run's work counters land in `telemetry` (accumulating — a long-lived
/// Telemetry collects totals across calls).  Result::stats is the run's
/// own accounting (EngineOptions::stats), so it reports THIS call only,
/// however many runs the registry has seen.  nullptr behaves exactly like
/// the two-argument overload.
[[nodiscard]] Result analyze(const model::FlowSet& set, const Config& cfg,
                             obs::Telemetry* telemetry);

/// Convenience: Property-2 response-time bound of a single flow (by
/// original index).  Returns kInfiniteDuration when divergent.
[[nodiscard]] Duration response_bound(const model::FlowSet& set, FlowIndex i,
                                      const Config& cfg = {});

class AnalysisCache;
class Engine;

namespace detail {

/// Bound of original flow `orig` from a finished engine over `norm`'s
/// flow set: the sum of its Assumption-1 segments' bounds plus one link
/// delay per junction (flagged `composed` when split), without the
/// per-hop profile.  The one composition rule, shared by analyze(),
/// reanalyze_with() and analyze_fp_fifo(); not part of the public API.
[[nodiscard]] FlowBound compose_flow(const model::FlowSet& set,
                                     const model::NormalisationReport& norm,
                                     const Engine& engine, FlowIndex orig);

/// The one analysis pipeline behind analyze() and reanalyze_with():
/// validate, normalise, warm-start from `cache` when non-null, run the
/// engine, refresh `cache`, compose.  `span_name` names the run's root
/// span in `telemetry` (when non-null).  Not part of the public API.
[[nodiscard]] Result run(const model::FlowSet& set, const Config& cfg,
                         AnalysisCache* cache, obs::Telemetry* telemetry,
                         std::string_view span_name);

}  // namespace detail

}  // namespace tfa::trajectory
