#include "eval/answer_star.h"

#include <algorithm>

#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/planner.h"
#include "util/logging.h"

namespace ucqn {

namespace {

// With a cost model in play, the literal order PLAN* emitted (body order)
// is itself a plan-quality decision: route it through the model. A
// disjunct the model cannot order (not orderable under the greedy rule)
// keeps its PLAN* order, which is executable by construction.
ConjunctiveQuery ReorderDisjunct(const ConjunctiveQuery& disjunct,
                                 const Catalog& catalog,
                                 const CostModel& model) {
  std::optional<ConjunctiveQuery> ordered =
      OptimizeLiteralOrder(disjunct, catalog, model);
  return ordered.has_value() ? std::move(*ordered) : disjunct;
}

// Reorders both plans. Every disjunct PLAN* found fully answerable sits in
// Qᵘ and, unchanged, in Qᵒ (a feasible query has Qᵘ = Qᵒ), so a Qᵒ
// disjunct equal to a Qᵘ disjunct reuses the order already chosen for it
// instead of being priced again. No fetch runs between the two reorders,
// so the model would choose that same order anyway.
void ReorderPlans(const UnionQuery& under, const UnionQuery& over,
                  const Catalog& catalog, const CostModel& model,
                  UnionQuery* under_out, UnionQuery* over_out) {
  const std::vector<ConjunctiveQuery>& under_disjuncts = under.disjuncts();
  std::vector<ConjunctiveQuery> under_ordered;
  under_ordered.reserve(under_disjuncts.size());
  for (const ConjunctiveQuery& disjunct : under_disjuncts) {
    under_ordered.push_back(ReorderDisjunct(disjunct, catalog, model));
  }
  for (const ConjunctiveQuery& disjunct : over.disjuncts()) {
    auto same = std::find(under_disjuncts.begin(), under_disjuncts.end(),
                          disjunct);
    over_out->AddDisjunct(
        same != under_disjuncts.end()
            ? under_ordered[same - under_disjuncts.begin()]
            : ReorderDisjunct(disjunct, catalog, model));
  }
  *under_out = UnionQuery(std::move(under_ordered));
}

}  // namespace

AnswerStarReport AnswerStar(const UnionQuery& q, const Catalog& catalog,
                            Source* source, const ExecutionOptions& options) {
  PlanStarResult plans = PlanStar(q, catalog);
  AnswerStarReport report =
      AnswerStar(plans.under, plans.over, catalog, source, options);
  report.plans = std::move(plans);
  return report;
}

AnswerStarReport AnswerStar(const UnionQuery& under_in,
                            const UnionQuery& over_in,
                            const Catalog& catalog, Source* source,
                            const ExecutionOptions& options) {
  AnswerStarReport report;
  const UnionQuery* under_plan = &under_in;
  const UnionQuery* over_plan = &over_in;
  UnionQuery under_ordered;
  UnionQuery over_ordered;
  if (options.cost_model != nullptr) {
    ReorderPlans(under_in, over_in, catalog, *options.cost_model,
                 &under_ordered, &over_ordered);
    under_plan = &under_ordered;
    over_plan = &over_ordered;
  }

  // One stack for both plans: Qᵘ and Qᵒ overlap heavily (the underestimate
  // drops unanswerable parts of the overestimate's disjuncts), so sharing
  // the cache absorbs the duplicate calls. The stats sink, if any, is
  // drained once from this shared stack (the per-plan Execute calls run
  // with runtime and sink disabled).
  std::optional<SourceStack> stack;
  Source* effective = source;
  ExecutionOptions plan_options = options;
  RuntimeOptions runtime = options.runtime;
  if (options.stats_sink != nullptr) runtime.metering = true;
  if (runtime.Enabled()) {
    stack.emplace(source, runtime);
    effective = stack->source();
    plan_options.runtime = RuntimeOptions{};
    // Inter-literal pipelining is an executor-side decision, not a stack
    // layer, so it must survive the handoff to the per-plan Execute calls
    // — along with the shared clock, so overlapped waves are charged
    // against the same timeline the outer stack's layers sleep on.
    plan_options.runtime.pipeline_depth = runtime.pipeline_depth;
    plan_options.runtime.clock = stack->clock();
    plan_options.stats_sink = nullptr;
  }

  ExecutionResult under =
      Execute(*under_plan, catalog, effective, plan_options);
  ExecutionResult over =
      under.ok ? Execute(*over_plan, catalog, effective, plan_options)
               : ExecutionResult{};
  if (stack.has_value()) {
    report.runtime = stack->stats();
    if (options.stats_sink != nullptr && stack->meter() != nullptr) {
      options.stats_sink->Observe(*stack->meter());
    }
  }
  // The executor-side scheduling counters (pipelining rounds, operator-DAG
  // disjunct/morsel/anti-join work) live in the per-plan results, not the
  // shared stack; fold both plans' counts into the report — whether or not
  // a stack ran, since the executor did either way.
  report.runtime.pipeline_rounds =
      under.runtime.pipeline_rounds + over.runtime.pipeline_rounds;
  report.runtime.pipeline_overlaps =
      under.runtime.pipeline_overlaps + over.runtime.pipeline_overlaps;
  report.runtime.disjuncts_executed =
      under.runtime.disjuncts_executed + over.runtime.disjuncts_executed;
  report.runtime.morsels = under.runtime.morsels + over.runtime.morsels;
  report.runtime.antijoin_build_tuples = under.runtime.antijoin_build_tuples +
                                         over.runtime.antijoin_build_tuples;
  if (!under.ok || !over.ok) {
    report.error = !under.ok ? "underestimate plan failed: " + under.error
                             : "overestimate plan failed: " + over.error;
    return report;
  }
  report.ok = true;

  report.under = std::move(under.tuples);
  report.over = std::move(over.tuples);
  std::set_difference(report.over.begin(), report.over.end(),
                      report.under.begin(), report.under.end(),
                      std::inserter(report.delta, report.delta.begin()));
  report.complete = report.delta.empty();
  for (const Tuple& tuple : report.delta) {
    for (const Term& t : tuple) {
      if (t.IsNull()) {
        report.delta_has_nulls = true;
        break;
      }
    }
    if (report.delta_has_nulls) break;
  }
  if (!report.complete && !report.delta_has_nulls && !report.over.empty()) {
    report.completeness_lower_bound =
        static_cast<double>(report.under.size()) /
        static_cast<double>(report.over.size());
  }
  return report;
}

std::string AnswerStarReport::Summary() const {
  if (!ok) return "ANSWER* failed: " + error;
  std::string out = TupleSetToString(under);
  if (!out.empty()) out += "\n";
  if (complete) {
    out += "answer is complete";
    return out;
  }
  out += "answer is not known to be complete\n";
  out += "these tuples may be part of the answer:\n";
  out += TupleSetToString(delta);
  if (completeness_lower_bound.has_value()) {
    out += "\nanswer is at least " +
           std::to_string(under.size()) + "/" + std::to_string(over.size()) +
           " complete";
  }
  return out;
}

}  // namespace ucqn
