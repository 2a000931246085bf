#include "replica.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/estimates.h"
#include "eval/answer_star.h"
#include "feasibility/compile.h"
#include "trace.h"

namespace perfbench {

using ucqn::ServiceRequest;
using ucqn::ServiceResponse;

namespace {

std::uint64_t MinCap(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

// Tenant quota, then admission — QueryDaemon::Submit's gate. Returns
// false (with the refusal filled in) when the request may not run.
bool Admit(ucqn::QueryDaemon* daemon, const ServiceRequest& request,
           ServiceResponse* response) {
  ScopedSpan span(Layer::kAdmit);
  if (!daemon->tenants()->TryEnter(request.tenant)) {
    response->status = ServiceResponse::Status::kQuotaRefused;
    response->error = "tenant over max_concurrent quota";
    return false;
  }
  switch (daemon->admission()->Enter()) {
    case ucqn::AdmissionController::Outcome::kShed:
      daemon->tenants()->Leave(request.tenant);
      response->status = ServiceResponse::Status::kShed;
      response->error = "admission queue full";
      return false;
    case ucqn::AdmissionController::Outcome::kDraining:
      daemon->tenants()->Leave(request.tenant);
      response->status = ServiceResponse::Status::kDraining;
      response->error = "daemon is draining";
      return false;
    case ucqn::AdmissionController::Outcome::kAdmitted:
      break;
  }
  return true;
}

void Leave(ucqn::QueryDaemon* daemon, const ServiceRequest& request) {
  ScopedSpan span(Layer::kAdmit);
  daemon->admission()->Leave();
  daemon->tenants()->Leave(request.tenant);
}

}  // namespace

Replica::Replica(Instance* instance)
    : instance_(instance), daemon_(&instance->daemon()) {}

std::string Replica::SubmitLine(const std::string& line) {
  std::string error;
  std::optional<ServiceRequest> request;
  {
    ScopedSpan span(Layer::kDecode);
    request = ucqn::ParseServiceRequest(line, &error);
  }
  ServiceResponse response;
  if (!request) {
    response.status = ServiceResponse::Status::kError;
    response.error = "bad request: " + error;
  } else if (request->op == ServiceRequest::Op::kDelta) {
    response = RunDelta(*request);
  } else if (request->op == ServiceRequest::Op::kAnswers) {
    response = RunAnswers(*request);
  } else if (request->op == ServiceRequest::Op::kQuery) {
    response = RunQuery(*request);
  } else {
    response.status = ServiceResponse::Status::kError;
    response.error = "the traced replica serves query, delta and answers ops";
  }
  ScopedSpan span(Layer::kEncode);
  return response.ToJsonLine();
}

ServiceResponse Replica::RunQuery(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;
  if (!Admit(daemon_, request, &response)) return response;
  response = RunSession(request);
  if (request.standing && response.status == ServiceResponse::Status::kOk) {
    RegisterStanding(request, &response);
  }
  Leave(daemon_, request);
  return response;
}

// RunQuerySession, call for call.
ServiceResponse Replica::RunSession(const ServiceRequest& request) {
  const ucqn::QueryDaemon::Options& options = daemon_->options();
  const ucqn::Catalog& catalog = instance_->catalog();
  RequestTrace* trace = CurrentTrace();
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;

  std::string error;
  std::optional<ucqn::UnionQuery> query;
  {
    ScopedSpan span(Layer::kParse);
    query = ucqn::ParseUnionQuery(request.query, &error);
  }
  if (!query) {
    response.status = ServiceResponse::Status::kError;
    response.error = "query error: " + error;
    return response;
  }
  bool covered = false;
  {
    ScopedSpan span(Layer::kCovers);
    covered = catalog.CoversQuery(*query, &error);
  }
  if (!covered) {
    response.status = ServiceResponse::Status::kError;
    response.error = "schema mismatch: " + error;
    return response;
  }
  std::optional<ucqn::CompileResult> compiled;
  {
    ScopedSpan span(Layer::kCompile);
    compiled = ucqn::Compile(*query, catalog, {});
  }

  const ucqn::TenantQuota quota = daemon_->tenants()->QuotaFor(request.tenant);
  ucqn::RuntimeOptions runtime = options.runtime;
  runtime.shared_cache = daemon_->shared_cache();
  runtime.metering = true;
  runtime.budget.max_calls =
      MinCap(request.max_calls, quota.max_calls_per_query);
  runtime.budget.deadline_micros =
      MinCap(runtime.budget.deadline_micros, quota.deadline_micros);

  ucqn::StatsCatalog stats_snapshot;
  if (options.adaptive_cost_model) {
    ScopedSpan wait(Layer::kStatsLockWait);
    std::lock_guard<std::mutex> lock(*daemon_->stats_mu());
    wait.End();
    ScopedSpan copy(Layer::kStatsCopy);
    stats_snapshot = *daemon_->stats();
  }
  if (trace != nullptr) trace->counts().stats_rows += stats_snapshot.size();

  std::optional<ucqn::AdaptiveCostModel> adaptive_model;
  {
    ScopedSpan span(Layer::kEstimates);
    ucqn::AdaptiveCostOptions adaptive_options;
    adaptive_options.shared_cache = daemon_->shared_cache();
    adaptive_options.use_observed_fanouts = options.fanout_feedback;
    ucqn::CardinalityEstimates estimates =
        ucqn::CardinalityEstimates::FromCatalog(catalog);
    if (options.adaptive_cost_model && options.fanout_feedback) {
      estimates.ApplyObservedFanouts(stats_snapshot);
    }
    adaptive_model.emplace(&stats_snapshot, std::move(estimates),
                           adaptive_options);
  }

  ucqn::ExecutionOptions exec;
  if (options.adaptive_cost_model) exec.cost_model = &*adaptive_model;
  exec.runtime.pipeline_depth = options.runtime.pipeline_depth;
  exec.disjunct_concurrency = options.disjunct_concurrency;

  std::optional<ucqn::SourceStack> stack;
  {
    ScopedSpan span(Layer::kStackSetup);
    stack.emplace(instance_->transport(), runtime);
  }
  exec.runtime.clock = stack->clock();
  TimingSource top(stack->source(), Layer::kStack, /*count_fetches=*/true);
  ucqn::AnswerStarReport report;
  {
    ScopedSpan span(Layer::kAnswerStar);
    report = ucqn::AnswerStar(compiled->analyzed_query, catalog, &top, exec);
  }

  const ucqn::RuntimeStats stats = stack->stats();
  response.physical_calls =
      stack->meter() != nullptr ? stack->meter()->totals().calls : 0;
  response.cache_hits = stats.cache_hits;
  response.cache_misses = stats.cache_misses;
  if (trace != nullptr) {
    RequestCounts& counts = trace->counts();
    counts.physical_calls += response.physical_calls;
    counts.cache_hits += stats.cache_hits;
    counts.cache_misses += stats.cache_misses;
    counts.cache_flight_waits += stats.cache_flight_waits;
    counts.cache_evictions += stats.cache_evictions;
    counts.retries += stats.retries;
    counts.giveups += stats.giveups;
    counts.morsels += report.runtime.morsels;
    counts.antijoin_build_tuples += report.runtime.antijoin_build_tuples;
    counts.disjuncts += report.runtime.disjuncts_executed;
    counts.rows_out += report.under.size() + report.over.size();
  }

  {
    ScopedSpan span(Layer::kObserve);
    if (stack->meter() != nullptr) {
      std::lock_guard<std::mutex> lock(*daemon_->stats_mu());
      daemon_->stats()->Observe(*stack->meter());
    }
    std::lock_guard<std::mutex> lock(*daemon_->stats_mu());
    operator_totals_.disjuncts_executed += report.runtime.disjuncts_executed;
    operator_totals_.morsels += report.runtime.morsels;
    operator_totals_.antijoin_build_tuples +=
        report.runtime.antijoin_build_tuples;
  }

  if (!report.ok) {
    response.status = ServiceResponse::Status::kError;
    response.error = report.error;
    return response;
  }
  response.status = ServiceResponse::Status::kOk;
  response.under = std::move(report.under);
  response.over = std::move(report.over);
  response.complete = report.complete;
  return response;
}

ucqn::RuntimeOptions Replica::MaintenanceRuntime() const {
  ucqn::RuntimeOptions runtime = daemon_->options().runtime;
  runtime.shared_cache = daemon_->shared_cache();
  runtime.metering = true;
  runtime.budget = ucqn::CallBudget{};
  return runtime;
}

void Replica::RegisterStanding(const ServiceRequest& request,
                               ServiceResponse* response) {
  const ucqn::Catalog& catalog = instance_->catalog();
  std::string error;
  std::optional<ucqn::UnionQuery> query =
      ucqn::ParseUnionQuery(request.query, &error);
  if (request.id.empty() || !query || !catalog.CoversQuery(*query, &error)) {
    response->status = ServiceResponse::Status::kError;
    response->error = "standing registration failed: " + error;
    return;
  }
  ucqn::CompileResult compiled = ucqn::Compile(*query, catalog, {});
  ucqn::SourceStack stack(instance_->transport(), MaintenanceRuntime());
  std::unique_ptr<ucqn::StandingQuery> standing = ucqn::StandingQuery::Build(
      compiled.analyzed_query, catalog, stack.source(), &error);
  if (standing == nullptr) {
    response->status = ServiceResponse::Status::kError;
    response->error = "standing registration failed: " + error;
    return;
  }
  std::lock_guard<std::mutex> lock(standing_mu_);
  standing_[request.tenant + "/" + request.id] =
      Standing{compiled.analyzed_query, std::move(standing), ""};
}

// RunDeltaOp, call for call. Delta workloads run serially, so no query
// session overlaps the update (the daemon enforces that with a private
// lock the replica cannot reach).
ServiceResponse Replica::RunDelta(const ServiceRequest& request) {
  const ucqn::Catalog& catalog = instance_->catalog();
  RequestTrace* trace = CurrentTrace();
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = false;

  const ucqn::RelationSchema* schema = catalog.Find(request.relation);
  if (schema == nullptr) {
    response.status = ServiceResponse::Status::kError;
    response.error = "unknown relation \"" + request.relation + "\"";
    return response;
  }
  for (const std::vector<ucqn::Tuple>* batch :
       {&request.insert_tuples, &request.delete_tuples}) {
    for (const ucqn::Tuple& tuple : *batch) {
      if (tuple.size() != schema->arity()) {
        response.status = ServiceResponse::Status::kError;
        response.error = "delta arity mismatch for " + request.relation;
        return response;
      }
    }
  }
  if (!Admit(daemon_, request, &response)) return response;

  ucqn::RelationDelta delta;
  delta.relation = request.relation;
  delta.inserts = request.insert_tuples;
  delta.deletes = request.delete_tuples;
  std::string error;
  std::optional<ucqn::AppliedDelta> applied;
  {
    ScopedSpan span(Layer::kApplyDelta);
    applied = ucqn::ApplyDelta(&instance_->database(), delta, &error);
  }
  if (!applied.has_value()) {
    response.status = ServiceResponse::Status::kError;
    response.error = error;
  } else {
    std::size_t cache_dropped = 0;
    {
      ScopedSpan span(Layer::kInvalidate);
      cache_dropped = daemon_->shared_cache()->InvalidateDelta(
          request.relation, applied->ChangedTuples());
    }
    if (trace != nullptr) trace->counts().invalidated_entries += cache_dropped;

    std::uint64_t physical_calls = 0;
    std::size_t standing_updated = 0;
    if (!applied->empty()) {
      const std::vector<ucqn::AppliedDelta> batch{*applied};
      std::lock_guard<std::mutex> lock(standing_mu_);
      for (auto& [key, entry] : standing_) {
        if (entry.standing == nullptr) continue;
        if (entry.standing->relations().count(request.relation) == 0) {
          continue;
        }
        ScopedSpan span(Layer::kMaintain);
        if (trace != nullptr) ++trace->counts().maintain_calls;
        ucqn::SourceStack stack(instance_->transport(), MaintenanceRuntime());
        TimingSource top(stack.source(), Layer::kStack);
        std::string maintain_error;
        if (!entry.standing->ApplyDeltas(batch, &top, &maintain_error)) {
          std::string rebuild_error;
          entry.standing = ucqn::StandingQuery::Build(
              entry.query, catalog, &top, &rebuild_error);
          if (entry.standing == nullptr) {
            entry.error = "maintenance failed (" + maintain_error +
                          "); rebuild failed: " + rebuild_error;
            physical_calls += stack.stats().source_calls;
            continue;
          }
        }
        ++standing_updated;
        physical_calls += stack.stats().source_calls;
      }
    }
    std::ostringstream payload;
    payload << "{\"inserted\": " << applied->inserted.size()
            << ", \"deleted\": " << applied->deleted.size()
            << ", \"cache_dropped\": " << cache_dropped
            << ", \"standing_updated\": " << standing_updated
            << ", \"physical_calls\": " << physical_calls << "}";
    response.payload_json = payload.str();
  }
  Leave(daemon_, request);
  return response;
}

ServiceResponse Replica::RunAnswers(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;
  const std::string key = request.tenant + "/" + request.id;
  std::lock_guard<std::mutex> lock(standing_mu_);
  auto it = standing_.find(key);
  if (it == standing_.end() || it->second.standing == nullptr) {
    response.status = ServiceResponse::Status::kError;
    response.error = it == standing_.end() ? "no standing query \"" + key + "\""
                                           : it->second.error;
    return response;
  }
  ucqn::StandingAnswers answers = it->second.standing->Answers();
  response.under = std::move(answers.under);
  response.over = std::move(answers.over);
  response.complete = answers.complete;
  return response;
}

}  // namespace perfbench
