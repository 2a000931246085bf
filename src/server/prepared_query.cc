#include "server/prepared_query.h"

#include <optional>
#include <utility>

#include "ast/parser.h"
#include "feasibility/plan_star.h"

namespace ucqn {

namespace {

PreparedQuery PrepareQuery(const std::string& text, const Catalog& catalog) {
  PreparedQuery prepared;
  std::string error;
  std::optional<UnionQuery> query = ParseUnionQuery(text, &error);
  if (!query) {
    prepared.error = "query error: " + error;
    return prepared;
  }
  if (!catalog.CoversQuery(*query, &error)) {
    prepared.error = "schema mismatch: " + error;
    return prepared;
  }
  PlanStarResult plans = PlanStar(*query, catalog);
  prepared.under = std::move(plans.under);
  prepared.over = std::move(plans.over);
  return prepared;
}

}  // namespace

std::shared_ptr<const PreparedQuery> PreparedQueryCache::Get(
    const std::string& text) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(text);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  auto prepared =
      std::make_shared<const PreparedQuery>(PrepareQuery(text, *catalog_));
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= kMaxEntries) entries_.clear();
  return entries_.emplace(text, std::move(prepared)).first->second;
}

std::string PreparedQueryCache::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return "{\"entries\": " + std::to_string(entries_.size()) +
         ", \"hits\": " + std::to_string(hits_) +
         ", \"misses\": " + std::to_string(misses_) + "}";
}

}  // namespace ucqn
