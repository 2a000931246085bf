#include "eval/answer_star.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/oracle.h"
#include "eval/planner.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

AnswerStarReport RunScenario(const Scenario& s) {
  DatabaseSource source(&s.database, &s.catalog);
  return AnswerStar(s.query, s.catalog, &source);
}

TEST(AnswerStarTest, Example4CompleteDespiteInfeasibility) {
  Scenario s = Example4UnderOver();
  AnswerStarReport report = RunScenario(s);
  // S(b) holds, so R(x,z),¬S(z) yields nothing: Δ = ∅ and the answer is
  // complete although Q is infeasible.
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.delta.empty());
  EXPECT_EQ(report.under.size(), 2u);  // the two T tuples
  EXPECT_EQ(report.under, report.over);
  EXPECT_NE(report.Summary().find("answer is complete"), std::string::npos);
}

TEST(AnswerStarTest, Example6ForeignKeyForcesCompleteness) {
  Scenario s = Example6ForeignKey();
  AnswerStarReport report = RunScenario(s);
  EXPECT_TRUE(report.complete);
  // The underestimate equals the true answer.
  EXPECT_EQ(report.under, OracleEvaluate(s.query, s.database));
}

TEST(AnswerStarTest, Example7NullTupleInDelta) {
  Scenario s = Example7Nulls();
  AnswerStarReport report = RunScenario(s);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.delta_has_nulls);
  // With nulls in Δ, no numeric completeness bound can be given.
  EXPECT_FALSE(report.completeness_lower_bound.has_value());
  ASSERT_EQ(report.delta.size(), 1u);
  EXPECT_EQ(*report.delta.begin(),
            (Tuple{Term::Constant("a"), Term::Null()}));
  EXPECT_NE(report.Summary().find("may be part of the answer"),
            std::string::npos);
}

TEST(AnswerStarTest, CompletenessRatioWithoutNulls) {
  // Craft a query whose overestimate adds null-free tuples: the
  // unanswerable literal is boolean (no new head variables).
  Catalog catalog = Catalog::MustParse("R/2: oo\nP/1: i\nT/2: oo\n");
  UnionQuery q = MustParseUnionQuery(R"(
    Q(x, y) :- R(x, y), P(x).
    Q(x, y) :- T(x, y).
  )");
  Database db = Database::MustParseFacts(R"(
    R("r1", "s1").
    P("r1").
    T("t1", "t2").
  )");
  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(q, catalog, &source);
  // P(x) is answerable?? P^i with x bound by R — yes; so plans coincide.
  EXPECT_TRUE(report.complete);

  // Now make P truly unanswerable by giving it an unbound variable.
  UnionQuery q2 = MustParseUnionQuery(R"(
    Q(x, y) :- R(x, y), P(w).
    Q(x, y) :- T(x, y).
  )");
  AnswerStarReport report2 = AnswerStar(q2, catalog, &source);
  EXPECT_FALSE(report2.complete);
  EXPECT_FALSE(report2.delta_has_nulls);
  ASSERT_TRUE(report2.completeness_lower_bound.has_value());
  // under = {t1 tuple}; over adds the R tuple: 1/2.
  EXPECT_DOUBLE_EQ(*report2.completeness_lower_bound, 0.5);
  EXPECT_NE(report2.Summary().find("at least"), std::string::npos);
}

TEST(AnswerStarTest, UnderestimateIsSound) {
  // Every tuple of ansᵤ must be a genuine answer (Qᵘ ⊑ Q pointwise).
  for (const Scenario& s : AllScenarios()) {
    AnswerStarReport report = RunScenario(s);
    std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
    for (const Tuple& t : report.under) {
      EXPECT_TRUE(truth.count(t))
          << s.name << ": spurious underestimate tuple " << TupleToString(t);
    }
  }
}

TEST(AnswerStarTest, OverestimateCoversTruthModuloNulls) {
  // Every true answer must appear in ansₒ, possibly with nulls in the
  // columns the overestimate could not compute.
  for (const Scenario& s : AllScenarios()) {
    AnswerStarReport report = RunScenario(s);
    std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
    for (const Tuple& t : truth) {
      bool covered = false;
      for (const Tuple& o : report.over) {
        if (o.size() != t.size()) continue;
        bool match = true;
        for (std::size_t j = 0; j < t.size(); ++j) {
          if (!o[j].IsNull() && o[j] != t[j]) {
            match = false;
            break;
          }
        }
        if (match) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << s.name << ": answer " << TupleToString(t)
                           << " missing from overestimate";
    }
  }
}

TEST(AnswerStarTest, FeasibleQueryAlwaysComplete) {
  Scenario s = Example1Books();
  AnswerStarReport report = RunScenario(s);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.under, OracleEvaluate(s.query, s.database));
}

TEST(AnswerStarTest, EmptyDatabaseIsCompleteAndEmpty) {
  Scenario s = Example4UnderOver();
  Database empty;
  DatabaseSource source(&empty, &s.catalog);
  AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.under.empty());
}

// Delegates to the static model and counts the literal-ranking calls.
class CountingCostModel : public CostModel {
 public:
  std::string name() const override { return "counting"; }
  double PatternCost(const Literal& literal, const AccessPattern& pattern,
                     const BoundVariables& bound,
                     const PlanContext& context) const override {
    return inner_.PatternCost(literal, pattern, bound, context);
  }
  LiteralScore ScoreLiteral(const Catalog& catalog, const Literal& literal,
                            const BoundVariables& bound,
                            const PlanContext& context) const override {
    ++score_calls;
    return inner_.ScoreLiteral(catalog, literal, bound, context);
  }
  double ExpectedFanout(const Literal& literal,
                        const BoundVariables& bound) const override {
    return inner_.ExpectedFanout(literal, bound);
  }

  mutable std::size_t score_calls = 0;

 private:
  StaticCostModel inner_;
};

// Each plan ordered on its own, the way ANSWER* ordered them before a Qᵒ
// disjunct could reuse its Qᵘ twin's order.
UnionQuery OrderedOnItsOwn(const UnionQuery& plan, const Catalog& catalog,
                           const CostModel& model) {
  UnionQuery out;
  for (const ConjunctiveQuery& disjunct : plan.disjuncts()) {
    std::optional<ConjunctiveQuery> ordered =
        OptimizeLiteralOrder(disjunct, catalog, model);
    out.AddDisjunct(ordered.has_value() ? *ordered : disjunct);
  }
  return out;
}

void ExpectSameRuntimeCounters(const RuntimeStats& a, const RuntimeStats& b) {
  EXPECT_EQ(a.source_calls, b.source_calls);
  EXPECT_EQ(a.tuples_fetched, b.tuples_fetched);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.disjuncts_executed, b.disjuncts_executed);
  EXPECT_EQ(a.morsels, b.morsels);
  EXPECT_EQ(a.antijoin_build_tuples, b.antijoin_build_tuples);
}

TEST(AnswerStarTest, OverestimateReusesTheUnderestimateOrdering) {
  Catalog catalog =
      Catalog::MustParse("L/1: o\nB/2: io oo\nC/2: oo\nN/1: i\n");
  Database db = Database::MustParseFacts(R"(
    L("a"). L("b").
    B("a", "x"). B("b", "y"). B("c", "z").
    C("x", "1"). C("y", "2").
    N("y").
  )");
  // Both disjuncts are orderable, so the query is feasible: Qᵘ = Qᵒ.
  UnionQuery q = MustParseUnionQuery(R"(
    Q(x, y) :- C(y, w), B(x, y), L(x).
    Q(x, y) :- B(x, y), not N(y), L(x).
  )");
  const PlanStarResult plans = PlanStar(q, catalog);
  ASSERT_TRUE(plans.PlansEqual());

  CountingCostModel model;
  ExecutionOptions options;
  options.cost_model = &model;
  options.runtime.cache = true;
  DatabaseSource source(&db, &catalog);
  AnswerStarReport shared = AnswerStar(q, catalog, &source, options);
  ASSERT_TRUE(shared.ok) << shared.error;
  const std::size_t shared_calls = model.score_calls;

  // The reference: both plans priced independently, then run unordered.
  model.score_calls = 0;
  const UnionQuery under = OrderedOnItsOwn(plans.under, catalog, model);
  const UnionQuery over = OrderedOnItsOwn(plans.over, catalog, model);
  const std::size_t independent_calls = model.score_calls;
  ExecutionOptions unordered = options;
  unordered.cost_model = nullptr;
  DatabaseSource reference_source(&db, &catalog);
  AnswerStarReport reference =
      AnswerStar(under, over, catalog, &reference_source, unordered);
  ASSERT_TRUE(reference.ok) << reference.error;

  ASSERT_GT(shared_calls, 0u);
  EXPECT_EQ(2 * shared_calls, independent_calls);
  EXPECT_EQ(shared.under, reference.under);
  EXPECT_EQ(shared.over, reference.over);
  EXPECT_EQ(shared.delta, reference.delta);
  EXPECT_FALSE(shared.under.empty());
  ExpectSameRuntimeCounters(shared.runtime, reference.runtime);
  EXPECT_EQ(source.stats().calls, reference_source.stats().calls);
}

TEST(AnswerStarTest, PreparedPlansOverloadMatchesTheQueryOverload) {
  // Every paper scenario, feasible or not: in the infeasible ones Qᵒ
  // keeps null-padded disjuncts Qᵘ dismissed, which are priced on their
  // own while the shared ones reuse the Qᵘ order.
  for (const Scenario& s : AllScenarios()) {
    CountingCostModel model;
    ExecutionOptions options;
    options.cost_model = &model;
    DatabaseSource from_query_source(&s.database, &s.catalog);
    AnswerStarReport from_query =
        AnswerStar(s.query, s.catalog, &from_query_source, options);
    const PlanStarResult plans = PlanStar(s.query, s.catalog);
    DatabaseSource from_plans_source(&s.database, &s.catalog);
    AnswerStarReport from_plans = AnswerStar(
        plans.under, plans.over, s.catalog, &from_plans_source, options);
    EXPECT_EQ(from_query.ok, from_plans.ok) << s.name;
    EXPECT_EQ(from_query.under, from_plans.under) << s.name;
    EXPECT_EQ(from_query.over, from_plans.over) << s.name;
    EXPECT_EQ(from_query.complete, from_plans.complete) << s.name;
    // Only the query overload carries the plans for diagnostics.
    EXPECT_EQ(from_query.plans.under, plans.under) << s.name;
    EXPECT_EQ(from_query.plans.over, plans.over) << s.name;
    EXPECT_TRUE(from_plans.plans.under.IsFalseQuery()) << s.name;
    EXPECT_EQ(from_query_source.stats().calls, from_plans_source.stats().calls)
        << s.name;
  }
}

}  // namespace
}  // namespace ucqn
