#include "eval/executor.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/binding_step.h"
#include "eval/dag_executor.h"
#include "eval/op/operator.h"
#include "schema/adornment.h"

namespace ucqn {

namespace {

// What every engine below needs besides the query: the effective source
// (any runtime stack already interposed), the stack's clock for overlap
// accounting, the cost model every pattern decision flows through, and
// the executor-side counters.
struct Run {
  Source* source = nullptr;
  Clock* clock = nullptr;
  const CostModel* model = nullptr;
  OperatorCounters* counters = nullptr;
};

// The one stack-setup/fold wrapper behind the three public entry points:
// resolves the cost model (the caller's, or a StaticCostModel built from
// the preference knob), wraps `source` in a SourceStack when any runtime
// layer is on (a stats sink forces metering), runs `body`, and folds the
// stack's and the executor's counters into the result's RuntimeStats.
template <typename Result, typename Body>
Result WithRuntime(const ExecutionOptions& options, Source* source,
                   Body body) {
  RuntimeOptions runtime = options.runtime;
  if (options.stats_sink != nullptr) runtime.metering = true;
  std::optional<StaticCostModel> fallback_model;
  if (options.cost_model == nullptr) {
    fallback_model.emplace(options.pattern_preference);
  }
  OperatorCounters counters;
  Run run{source, runtime.clock,
          options.cost_model != nullptr ? options.cost_model
                                        : &*fallback_model,
          &counters};
  std::optional<SourceStack> stack;
  if (runtime.Enabled()) {
    stack.emplace(source, runtime);
    run.source = stack->source();
    run.clock = stack->clock();
  }
  Result result = body(run);
  if (stack.has_value()) result.runtime = stack->stats();
  // Executor-side scheduling counters: the stack cannot see them, and
  // they describe the executor, so they fold even without a stack.
  result.runtime.pipeline_rounds = counters.pipeline_rounds;
  result.runtime.pipeline_overlaps = counters.pipeline_overlaps;
  result.runtime.disjuncts_executed = counters.disjuncts_executed;
  result.runtime.morsels = counters.morsels;
  result.runtime.antijoin_build_tuples = counters.antijoin_build_tuples;
  if (stack.has_value() && options.stats_sink != nullptr &&
      stack->meter() != nullptr) {
    options.stats_sink->Observe(*stack->meter());
  }
  return result;
}

// The per-binding reference loop (batch = false): one Fetch per live
// binding per literal, exactly Definition 3's left-to-right reading. The
// oracle the operator DAG is pinned against, answers and witness order.
BindingsResult ExecuteReference(const ConjunctiveQuery& q,
                                const Catalog& catalog,
                                const ExecutionOptions& options,
                                const Run& run) {
  BindingsResult result;
  result.bindings.emplace_back();
  BoundVariables bound;
  for (const Literal& literal : q.body()) {
    PlanContext context;
    context.live_bindings = static_cast<double>(
        std::max<std::size_t>(result.bindings.size(), 1));
    std::optional<AccessPattern> pattern =
        ChoosePattern(catalog, literal, bound, *run.model, context);
    if (!pattern.has_value()) {
      result.error = "literal " + literal.ToString() +
                     " has no usable access pattern at its position";
      result.bindings.clear();
      return result;
    }
    std::vector<Substitution> next;
    for (const Substitution& binding : result.bindings) {
      if (!ExtendBinding(literal, *pattern, binding, run.source, &next,
                         &result.error)) {
        result.bindings.clear();
        return result;
      }
    }
    if (literal.positive()) BindVariables(literal, &bound);
    result.bindings = std::move(next);
    if (options.max_bindings != 0 &&
        result.bindings.size() > options.max_bindings) {
      result.error = "execution exceeded max_bindings (" +
                     std::to_string(options.max_bindings) + ") at literal " +
                     literal.ToString();
      result.bindings.clear();
      return result;
    }
    if (result.bindings.empty()) break;  // negations cannot revive answers
  }
  result.ok = true;
  return result;
}

// One body's witnesses on the configured engine: the reference loop when
// batching is off, the operator DAG (decoded in witness order) otherwise.
BindingsResult ExecuteBody(const ConjunctiveQuery& q, const Catalog& catalog,
                           const ExecutionOptions& options, const Run& run) {
  if (!options.batch) return ExecuteReference(q, catalog, options, run);
  UnionChainsResult chains = ExecuteChainsDag(
      {&q}, catalog, run.source, options, *run.model, run.clock,
      run.counters);
  BindingsResult result;
  result.ok = chains.ok;
  result.error = std::move(chains.error);
  if (chains.ok) result.bindings = std::move(chains.bindings.front());
  return result;
}

// Empty body: the head must already be ground (overestimate null rows).
ExecutionResult ExecuteTrueQuery(const ConjunctiveQuery& q) {
  ExecutionResult result;
  for (const Term& t : q.head_terms()) {
    if (!t.IsGround()) {
      result.error = "empty-body rule with non-ground head is not a plan: " +
                     q.ToString();
      return result;
    }
  }
  result.ok = true;
  result.tuples.insert(q.head_terms());
  return result;
}

std::string HeadNotBound(const ConjunctiveQuery& q) {
  return "head not fully bound by executable body: " + q.ToString();
}

// Projects the reference loop's witnesses through `q`'s head into
// `result`'s tuple set (set semantics). False — with the error set and
// the tuples cleared — when some witness leaves a head term non-ground.
bool ProjectBindings(const ConjunctiveQuery& q,
                     const std::vector<Substitution>& bindings,
                     ExecutionResult* result) {
  for (const Substitution& binding : bindings) {
    Tuple head = binding.Apply(q.head_terms());
    for (const Term& t : head) {
      if (!t.IsGround()) {
        result->ok = false;
        result->error = HeadNotBound(q);
        result->tuples.clear();
        return false;
      }
    }
    result->tuples.insert(std::move(head));
  }
  return true;
}

// The DAG's readout of the same projection: straight from the sink's id
// columns, each distinct answer decoded once. Same failure contract.
bool ProjectSink(const ConjunctiveQuery& q, const MaterializeOp& sink,
                 ExecutionResult* result) {
  if (sink.ProjectHead(q.head_terms(), TermDictionary::Global(),
                       &result->tuples)) {
    return true;
  }
  result->ok = false;
  result->error = HeadNotBound(q);
  result->tuples.clear();
  return false;
}

ExecutionResult ExecuteDisjunct(const ConjunctiveQuery& q,
                                const Catalog& catalog,
                                const ExecutionOptions& options,
                                const Run& run) {
  if (q.IsTrueQuery()) return ExecuteTrueQuery(q);
  ExecutionResult result;
  if (!options.batch) {
    BindingsResult body = ExecuteReference(q, catalog, options, run);
    if (!body.ok) {
      result.error = std::move(body.error);
      return result;
    }
    result.ok = true;
    ProjectBindings(q, body.bindings, &result);
    return result;
  }
  ChainSinks chains =
      RunChainsDag({&q}, catalog, run.source, options, *run.model, run.clock,
                   run.counters, /*project_heads=*/true);
  if (!chains.ok) {
    result.error = std::move(chains.error);
    return result;
  }
  result.ok = true;
  ProjectSink(q, chains.sinks.front(), &result);
  return result;
}

ExecutionResult ExecuteUnion(const UnionQuery& q, const Catalog& catalog,
                             const ExecutionOptions& options,
                             const Run& run) {
  ExecutionResult result;
  result.ok = true;
  const std::vector<ConjunctiveQuery>& disjuncts = q.disjuncts();
  if (!options.batch || options.disjunct_concurrency <= 1) {
    // Disjuncts in order, each to completion before the next starts.
    for (const ConjunctiveQuery& disjunct : disjuncts) {
      ExecutionResult part = ExecuteDisjunct(disjunct, catalog, options, run);
      if (!part.ok) return part;
      result.tuples.insert(part.tuples.begin(), part.tuples.end());
    }
    return result;
  }
  // Concurrent disjuncts: every body races through one DAG drive, then
  // the disjuncts are walked in order — true-queries resolve inline,
  // bodies project their heads — so the answer set and the first error
  // are the sequential loop's above: the drive stops chains after a
  // failing one and completes those before it.
  std::vector<const ConjunctiveQuery*> bodies;
  for (const ConjunctiveQuery& disjunct : disjuncts) {
    if (!disjunct.IsTrueQuery()) bodies.push_back(&disjunct);
  }
  ChainSinks chains;
  if (!bodies.empty()) {
    chains = RunChainsDag(bodies, catalog, run.source, options, *run.model,
                          run.clock, run.counters, /*project_heads=*/true);
  }
  std::size_t body = 0;
  for (const ConjunctiveQuery& disjunct : disjuncts) {
    if (disjunct.IsTrueQuery()) {
      ExecutionResult part = ExecuteTrueQuery(disjunct);
      if (!part.ok) return part;
      result.tuples.insert(part.tuples.begin(), part.tuples.end());
      continue;
    }
    if (!chains.ok && body == chains.failed) {
      ExecutionResult failed;
      failed.error = std::move(chains.error);
      return failed;
    }
    if (!ProjectSink(disjunct, chains.sinks[body++], &result)) break;
  }
  return result;
}

}  // namespace

BindingsResult ExecuteForBindings(const ConjunctiveQuery& q,
                                  const Catalog& catalog, Source* source,
                                  const ExecutionOptions& options) {
  return WithRuntime<BindingsResult>(options, source, [&](const Run& run) {
    return ExecuteBody(q, catalog, options, run);
  });
}

ExecutionResult Execute(const ConjunctiveQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options) {
  return WithRuntime<ExecutionResult>(options, source, [&](const Run& run) {
    return ExecuteDisjunct(q, catalog, options, run);
  });
}

ExecutionResult Execute(const UnionQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options) {
  // One stack for the whole union: the cache carries results across
  // disjuncts (they typically share relations) and the budget is a
  // per-query, not per-disjunct, limit.
  return WithRuntime<ExecutionResult>(options, source, [&](const Run& run) {
    return ExecuteUnion(q, catalog, options, run);
  });
}

}  // namespace ucqn
