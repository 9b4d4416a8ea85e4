#include "admission/admission.h"

#include <utility>

#include "base/contracts.h"
#include "holistic/holistic.h"
#include "netcalc/analysis.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"

namespace tfa::admission {

AdmissionController::AdmissionController(model::Network network,
                                         AnalysisKind kind,
                                         trajectory::Config trajectory_cfg)
    : set_(std::move(network)), kind_(kind),
      trajectory_cfg_(trajectory_cfg) {
  trajectory_cfg_.ef_mode = (kind_ == AnalysisKind::kTrajectoryEf);
  if (sharded())
    sharded_ = std::make_unique<trajectory::ShardedAnalyzer>(set_.network(),
                                                             trajectory_cfg_);
}

void AdmissionController::attach_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  // A controller is long-lived: bound the series and spans so telemetry
  // cannot grow without bound (overflow lands in the obs.series_dropped /
  // obs.spans_dropped counters instead of memory).
  if (telemetry_ != nullptr) telemetry_->set_capacity(obs::kLongLivedCapacity);
  if (sharded_) sharded_->attach_telemetry(telemetry);
}

Decision evaluate(const model::FlowSet& admitted,
                  const model::SporadicFlow& candidate, AnalysisKind kind,
                  obs::Telemetry* telemetry) {
  TFA_EXPECTS_MSG(kind == AnalysisKind::kHolistic ||
                      kind == AnalysisKind::kNetworkCalculus,
                  "the trajectory kinds admit through ShardedAnalyzer");
  Decision d;

  model::FlowSet tentative = admitted;
  tentative.add(candidate);
  d.reason = trajectory::structural_rejection(
      candidate, admitted.find(candidate.name()).has_value(), tentative);
  if (!d.reason.empty()) return d;

  bool ok = false;
  if (kind == AnalysisKind::kHolistic) {
    const holistic::Result r = holistic::analyze(tentative, {}, telemetry);
    ok = trajectory::collect_verdict(r.bounds, r.converged, tentative,
                                     candidate.name(), d.candidate_bound,
                                     d.violating);
  } else {
    const netcalc::Result r = netcalc::analyze(tentative, {}, telemetry);
    ok = trajectory::collect_verdict(r.bounds, r.converged, tentative,
                                     candidate.name(), d.candidate_bound,
                                     d.violating);
  }

  if (!ok) {
    d.reason = trajectory::analysis_rejection(d.violating);
    return d;
  }
  d.admitted = true;
  d.reason = "admitted";
  return d;
}

Decision AdmissionController::request(const model::SporadicFlow& flow) {
  obs::Span request_span = obs::span(telemetry_, "admission.request");
  Decision d;
  if (sharded_) {
    // Shard-routed path: only the shards the candidate's path touches are
    // analysed; the decision is bit-identical to a global analysis of the
    // tentative set (docs/sharding.md), only cheaper.
    trajectory::AdmitOutcome o = sharded_->admit(flow);
    d.admitted = o.admitted;
    d.reason = std::move(o.reason);
    d.violating = std::move(o.violating);
    d.candidate_bound = o.candidate_bound;
    last_stats_ = o.stats;
  } else {
    d = evaluate(set_, flow, kind_, telemetry_);
  }
  if (d.admitted) set_.add(flow);
  if (telemetry_ != nullptr) {
    ++telemetry_->metrics.counter("admission.requests");
    ++telemetry_->metrics.counter(d.admitted ? "admission.admitted"
                                             : "admission.rejected");
  }
  return d;
}

bool AdmissionController::release(std::string_view name) {
  const auto idx = set_.find(name);
  if (!idx) return false;
  if (telemetry_ != nullptr) ++telemetry_->metrics.counter("admission.released");
  if (sharded_) {
    const auto removed = sharded_->remove_flow(name);
    TFA_ASSERT(removed.has_value());
  }
  model::FlowSet next(set_.network());
  for (std::size_t i = 0; i < set_.size(); ++i)
    if (static_cast<FlowIndex>(i) != *idx)
      next.add(set_.flow(static_cast<FlowIndex>(i)));
  set_ = std::move(next);
  return true;
}

trajectory::ShardStats AdmissionController::shard_stats() const {
  if (!sharded_) return {};
  return sharded_->stats();
}

std::vector<std::pair<std::string, Duration>>
AdmissionController::certified_bounds() const {
  std::vector<std::pair<std::string, Duration>> out;
  if (set_.empty()) return out;
  switch (kind_) {
    case AnalysisKind::kTrajectory:
    case AnalysisKind::kTrajectoryEf: {
      const trajectory::Result r = trajectory::analyze(set_, trajectory_cfg_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
    case AnalysisKind::kHolistic: {
      const holistic::Result r = holistic::analyze(set_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
    case AnalysisKind::kNetworkCalculus: {
      const netcalc::Result r = netcalc::analyze(set_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
  }
  return out;
}

}  // namespace tfa::admission
