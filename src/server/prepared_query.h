#ifndef UCQN_SERVER_PREPARED_QUERY_H_
#define UCQN_SERVER_PREPARED_QUERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ast/query.h"
#include "schema/catalog.h"

namespace ucqn {

// One query text, prepared: everything about a request that depends only
// on (query text, catalog). PLAN* (Fig. 2) is a data-independent,
// compile-time step — ANSWER* (Fig. 4) only evaluates the two plans it
// emits — so the daemon parses, schema-checks and plans each distinct
// text once and every request carrying it evaluates the stored plans.
// Deltas change the data, never these plans.
struct PreparedQuery {
  // Non-empty when the text cannot run: the response's error verbatim
  // ("query error: ..." or "schema mismatch: ...").
  std::string error;
  // PLAN*'s executable plans Qᵘ and Qᵒ. Only these two are kept — the
  // full PlanStarResult holds per-disjunct copies no request reads.
  UnionQuery under;
  UnionQuery over;
};

// The daemon's prepared-query cache, keyed by the exact request text.
// Thread-safe. Entries are immutable and handed out as shared_ptrs, so a
// session keeps its entry alive even if the map is cleared under it.
// Bounded: hostile clients can send unlimited distinct texts, so the map
// is cleared whenever an insert would exceed kMaxEntries (a hot working
// set re-prepares on its next request; PLAN* is quadratic, not costly).
class PreparedQueryCache {
 public:
  static constexpr std::size_t kMaxEntries = 1024;

  // Does not take ownership; `catalog` must outlive the cache and stay
  // unchanged (the entries were planned against it).
  explicit PreparedQueryCache(const Catalog* catalog) : catalog_(catalog) {}

  // The prepared entry for `text` (parse → CoversQuery → PLAN*),
  // preparing it on a miss. Preparation runs outside the lock, so
  // concurrent misses on different texts do not serialize; two racing
  // misses on one text both prepare and the first insert wins.
  std::shared_ptr<const PreparedQuery> Get(const std::string& text);

  // {"entries": N, "hits": H, "misses": M}; misses count preparations
  // (PLAN* runs).
  std::string ToJson() const;

 private:
  const Catalog* catalog_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedQuery>>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ucqn

#endif  // UCQN_SERVER_PREPARED_QUERY_H_
