// Session store of the analysis service: each session is one named,
// long-lived flow-set lineage carrying its own warm-start state
// (trajectory::AnalysisCache) and its own engine telemetry, so analyses
// of different sessions never share mutable state — that independence is
// what lets the socket transport run requests for different sessions
// truly concurrently.
//
// Concurrency contract: the store's own map is guarded internally
// (create/find/for_each are safe to call from any thread), and every
// *session's* mutable state is guarded by its `Session::mu` — a caller
// must hold it across any read or write of the session's set, cache,
// memo or telemetry.  A request locks at most one session at a time;
// single-transport deployments (loopback, stdio) pay only
// uncontended-lock costs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "model/flow_set.h"
#include "obs/telemetry.h"
#include "trajectory/batch.h"
#include "trajectory/shard.h"

namespace tfa::service {

/// One named network + flow set and everything that makes repeat
/// analyses of it cheap.
struct Session {
  std::string name;
  model::FlowSet set;

  /// Warm-start lineage across this session's analyses and admissions.
  /// Kept across mutations: reanalyze_with()'s validity check makes a
  /// stale cache (flow removed/modified) fall back to a cold start
  /// rather than an unsound warm one, while the common grow-only
  /// sequence stays warm.
  trajectory::AnalysisCache cache;

  /// Private engine sink (series capped).  Never shared with another
  /// session — requests for different sessions run concurrently on the
  /// socket transport.
  obs::Telemetry telemetry;

  std::uint64_t analyzes = 0;  ///< Engine runs (memo hits excluded).

  /// Shard-routed admission engine (trajectory/shard.h), built lazily by
  /// the first `admit` and kept in membership lockstep with `set` by the
  /// mutating ops.  An admit analyses only the shards the candidate's
  /// path touches — bit-identical to the global analysis, but priced by
  /// shard size.  `sharded_key` is the options key (Service::RunOptions)
  /// the analyzer was built with; an admit under different options
  /// rebuilds it cold rather than reusing state computed under the wrong
  /// Config.
  std::unique_ptr<trajectory::ShardedAnalyzer> sharded;
  std::string sharded_key;

  /// Exact-result memo of the latest analyze: `memo_key` is the options
  /// key it ran under, `memo_fragment` the rendered result body.  A
  /// repeat analyze under the same options answers from here without
  /// touching the engine.  The key need not cover the set, because every
  /// mutation of `set` calls invalidate_memo().
  std::string memo_key;
  std::string memo_fragment;

  /// Guards everything above except `name` (immutable after creation).
  /// Held by the service for the duration of each request touching this
  /// session, including the engine run of an `analyze`.
  std::mutex mu;

  void invalidate_memo() {
    memo_key.clear();
    memo_fragment.clear();
  }
};

/// Name-ordered session registry with a capacity limit.  Lookups and
/// creation are internally synchronised; sessions are never destroyed
/// before the store, so a returned `Session*` stays valid for the
/// store's lifetime.
class SessionStore {
 public:
  explicit SessionStore(std::size_t max_sessions) : max_(max_sessions) {}

  enum class Create { kCreated, kDuplicate, kFull };

  /// Creates an empty session named `name`; on kCreated, `*out` points at
  /// it (series capacity already bounded).
  Create create(const std::string& name, Session** out);

  /// The session named `name`, or nullptr.
  [[nodiscard]] Session* find(std::string_view name);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return max_; }

  /// Visits every session in name order under the store lock
  /// (deterministic iteration for the `metrics` op).  `body` may lock
  /// individual sessions but must not call back into the store.
  void for_each(const std::function<void(const std::string&, Session&)>& body);

  /// All sessions in name order.  Unsynchronised — only for
  /// single-threaded callers (tests, single-transport tools).
  [[nodiscard]] std::map<std::string, Session, std::less<>>& all() noexcept {
    return sessions_;
  }

 private:
  std::size_t max_;
  mutable std::mutex mu_;
  std::map<std::string, Session, std::less<>> sessions_;
};

}  // namespace tfa::service
