#include "service/session.h"

namespace tfa::service {

SessionStore::Create SessionStore::create(const std::string& name,
                                          Session** out) {
  *out = nullptr;
  const std::scoped_lock lock(mu_);
  if (sessions_.find(name) != sessions_.end()) return Create::kDuplicate;
  if (sessions_.size() >= max_) return Create::kFull;
  Session& s = sessions_[name];
  s.name = name;
  // A session is long-lived and its runs add one busy-period series per
  // analysed flow: bound the series names, their lengths and the spans,
  // so telemetry stays bounded however many flows churn through (drops
  // land in obs.series_dropped / obs.spans_dropped).
  s.telemetry.set_capacity(obs::kLongLivedCapacity);
  *out = &s;
  return Create::kCreated;
}

Session* SessionStore::find(std::string_view name) {
  const std::scoped_lock lock(mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

std::size_t SessionStore::size() const {
  const std::scoped_lock lock(mu_);
  return sessions_.size();
}

void SessionStore::for_each(
    const std::function<void(const std::string&, Session&)>& body) {
  const std::scoped_lock lock(mu_);
  for (auto& [name, session] : sessions_) body(name, session);
}

}  // namespace tfa::service
