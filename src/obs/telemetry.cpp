#include "obs/telemetry.h"

namespace tfa::obs {

Span span(Telemetry* t, std::string_view name) {
  if (t == nullptr) return Span{};
  if (t->trace.full()) {
    ++t->metrics.counter("obs.spans_dropped");
    return Span{};
  }
  return t->trace.span(name);
}

}  // namespace tfa::obs
