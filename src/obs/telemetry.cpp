#include "obs/telemetry.h"

namespace tfa::obs {

Span span(Telemetry* t, std::string_view name) {
  if (t == nullptr) return Span{};
  // At the capacity the tracer evicts its oldest span to record this one.
  if (t->trace.full()) ++t->metrics.counter("obs.spans_dropped");
  return t->trace.span(name);
}

}  // namespace tfa::obs
