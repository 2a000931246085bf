// Regression corpus for the push-based operator-DAG executor: across the
// paper's worked examples (gen/scenarios.h, Examples 1-10) and the
// parallelism grid, the DAG (the default) must equal the per-binding
// reference loop (batch = false) on answer sets, ANSWER* brackets and
// summaries, witness order, and error messages, and must reproduce the
// call/cache/retry ledgers recorded from the retired pre-DAG encoded loop
// as golden values. Morsel splitting must preserve answers and witness
// order.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "eval/op/lowering.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

ExecutionOptions GridOptions(std::size_t parallelism) {
  ExecutionOptions options;
  options.batch = true;
  options.runtime.metering = true;  // force a stack so ledgers are live
  options.runtime.parallelism = parallelism;
  return options;
}

ExecutionOptions ReferenceOptions() {
  ExecutionOptions options;
  options.batch = false;
  return options;
}

struct Ledger {
  std::uint64_t calls = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t retries = 0;

  bool operator==(const Ledger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Ledger& l) {
  return os << "{calls=" << l.calls << " hits=" << l.hits
            << " misses=" << l.misses << " retries=" << l.retries << "}";
}

Ledger LedgerOf(const RuntimeStats& stats) {
  return {stats.source_calls, stats.cache_hits, stats.cache_misses,
          stats.retries};
}

// The pre-DAG encoded loop's ANSWER* ledgers under GridOptions plus a
// per-run cache, recorded before that loop was deleted (the string path
// and the DAG agreed with it on every row).
struct GoldenRow {
  const char* scenario;
  std::size_t parallelism;
  Ledger ledger;
};
constexpr GoldenRow kGoldenLedgers[] = {
    {"example1_books", 1, {3, 3, 3, 0}},
    {"example1_books", 4, {3, 3, 3, 0}},
    {"example3_feasible_not_orderable", 1, {2, 2, 2, 0}},
    {"example3_feasible_not_orderable", 4, {2, 2, 2, 0}},
    {"example4_under_over", 1, {3, 1, 3, 0}},
    {"example4_under_over", 4, {3, 1, 3, 0}},
    {"example6_foreign_key", 1, {3, 1, 3, 0}},
    {"example6_foreign_key", 4, {3, 1, 3, 0}},
    {"example7_nulls", 1, {3, 1, 3, 0}},
    {"example7_nulls", 4, {3, 1, 3, 0}},
    {"example8_domain_enum", 1, {3, 1, 3, 0}},
    {"example8_domain_enum", 4, {3, 1, 3, 0}},
    {"example9_cq", 1, {3, 1, 3, 0}},
    {"example9_cq", 4, {3, 1, 3, 0}},
    {"example10_ucq", 1, {3, 5, 3, 0}},
    {"example10_ucq", 4, {3, 5, 3, 0}},
};

std::vector<std::string> BindingStrings(const BindingsResult& result) {
  std::vector<std::string> order;
  order.reserve(result.bindings.size());
  for (const Substitution& binding : result.bindings) {
    order.push_back(binding.ToString());
  }
  return order;
}

TEST(OperatorDagTest, AnswerStarBracketsMatchTheReferenceAcrossTheGrid) {
  for (const Scenario& scenario : AllScenarios()) {
    DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
    AnswerStarReport reference =
        AnswerStar(scenario.query, scenario.catalog, &reference_backend,
                   ReferenceOptions());
    ASSERT_TRUE(reference.ok) << reference.error;
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(scenario.name +
                   " parallelism=" + std::to_string(parallelism));
      DatabaseSource dag_backend(&scenario.database, &scenario.catalog);
      AnswerStarReport dag =
          AnswerStar(scenario.query, scenario.catalog, &dag_backend,
                     GridOptions(parallelism));
      ASSERT_TRUE(dag.ok) << dag.error;

      // The full bracket, byte for byte — including the null-padded
      // overestimate rows (Ex. 7) that exercise the Δ-null sentinel.
      EXPECT_EQ(dag.under, reference.under);
      EXPECT_EQ(dag.over, reference.over);
      EXPECT_EQ(dag.delta, reference.delta);
      EXPECT_EQ(dag.complete, reference.complete);
      EXPECT_EQ(dag.delta_has_nulls, reference.delta_has_nulls);
      EXPECT_EQ(dag.completeness_lower_bound,
                reference.completeness_lower_bound);
      EXPECT_EQ(dag.Summary(), reference.Summary());
    }
  }
}

TEST(OperatorDagTest, LedgersMatchTheGoldenLegacyLoopAcrossTheGrid) {
  // The DAG changes who drives the loop, not the call waves the dedup
  // produces: physical calls and cache hits/misses equal the recorded
  // ledgers of the loop it replaced.
  const std::vector<Scenario> scenarios = AllScenarios();
  ASSERT_EQ(std::size(kGoldenLedgers), scenarios.size() * 2)
      << "every scenario x parallelism needs a golden row";
  for (const GoldenRow& row : kGoldenLedgers) {
    SCOPED_TRACE(std::string(row.scenario) +
                 " parallelism=" + std::to_string(row.parallelism));
    const Scenario* scenario = nullptr;
    for (const Scenario& s : scenarios) {
      if (s.name == row.scenario) scenario = &s;
    }
    ASSERT_NE(scenario, nullptr);
    DatabaseSource backend(&scenario->database, &scenario->catalog);
    ExecutionOptions options = GridOptions(row.parallelism);
    options.runtime.cache = true;
    AnswerStarReport report =
        AnswerStar(scenario->query, scenario->catalog, &backend, options);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(LedgerOf(report.runtime), row.ledger);
  }
}

TEST(OperatorDagTest, WitnessOrderMatchesTheReferenceAcrossTheGrid) {
  for (const Scenario& scenario : AllScenarios()) {
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
    std::vector<ConjunctiveQuery> bodies;
    bodies.insert(bodies.end(), plans.under.disjuncts().begin(),
                  plans.under.disjuncts().end());
    bodies.insert(bodies.end(), plans.over.disjuncts().begin(),
                  plans.over.disjuncts().end());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
      BindingsResult reference = ExecuteForBindings(
          bodies[i], scenario.catalog, &reference_backend, ReferenceOptions());
      for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(scenario.name + " disjunct=" + std::to_string(i) +
                     " parallelism=" + std::to_string(parallelism));
        DatabaseSource dag_backend(&scenario.database, &scenario.catalog);
        BindingsResult dag =
            ExecuteForBindings(bodies[i], scenario.catalog, &dag_backend,
                               GridOptions(parallelism));

        ASSERT_EQ(dag.ok, reference.ok)
            << dag.error << " vs " << reference.error;
        if (!reference.ok) {
          EXPECT_EQ(dag.error, reference.error);
          continue;
        }
        // The witness sequence exactly, not just its set: Materialize
        // must replay the left-to-right derivation order.
        EXPECT_EQ(BindingStrings(dag), BindingStrings(reference));
      }
    }
  }
}

TEST(OperatorDagTest, MorselSplittingPreservesWitnessOrder) {
  // Splitting wide frontiers into morsels reshapes the call waves (one
  // wave per morsel) but must not perturb answers or derivation order.
  for (const Scenario& scenario : AllScenarios()) {
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
    for (const ConjunctiveQuery& body : plans.under.disjuncts()) {
      DatabaseSource whole_backend(&scenario.database, &scenario.catalog);
      BindingsResult whole = ExecuteForBindings(
          body, scenario.catalog, &whole_backend, GridOptions(1));

      for (std::size_t morsel_rows :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(scenario.name +
                     " morsel_rows=" + std::to_string(morsel_rows));
        DatabaseSource backend(&scenario.database, &scenario.catalog);
        ExecutionOptions options = GridOptions(1);
        options.morsel_rows = morsel_rows;
        BindingsResult split =
            ExecuteForBindings(body, scenario.catalog, &backend, options);
        ASSERT_EQ(split.ok, whole.ok) << split.error;
        if (!whole.ok) continue;
        EXPECT_EQ(BindingStrings(split), BindingStrings(whole));
      }
    }
  }
}

TEST(OperatorDagTest, ErrorMessagesMatchTheReference) {
  const Catalog catalog = Catalog::MustParse("R/2: oo\nT/2: io\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    R("e", "f").
    T("b", "t1").
  )");
  const ConjunctiveQuery query = MustParseRule("Q(x, w) :- R(x, z), T(z, w).");

  // max_bindings trips at the same literal with the same message.
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "dag" : "reference");
    DatabaseSource backend(&db, &catalog);
    ExecutionOptions options = batch ? GridOptions(1) : ReferenceOptions();
    options.max_bindings = 2;
    ExecutionResult result = Execute(query, catalog, &backend, options);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "execution exceeded max_bindings (2) at literal R(x, z)");
  }

  // A literal with no usable pattern fails identically.
  const ConjunctiveQuery gap = MustParseRule("Q(x, w) :- T(z, w), R(x, z).");
  std::string reference_error;
  for (bool batch : {false, true}) {
    DatabaseSource backend(&db, &catalog);
    ExecutionResult result = Execute(
        gap, catalog, &backend, batch ? GridOptions(1) : ReferenceOptions());
    EXPECT_FALSE(result.ok);
    if (!batch) {
      reference_error = result.error;
      EXPECT_NE(reference_error.find("no usable access pattern"),
                std::string::npos);
    } else {
      EXPECT_EQ(result.error, reference_error);
    }
  }
}

TEST(OperatorDagTest, SharedCacheLedgerMatchesTheGoldenLegacyLoop) {
  // With caching on, hit/miss counts are part of the contract: the DAG's
  // staged waves must group calls exactly like the legacy loop did
  // (golden values recorded from it).
  const Catalog catalog = Catalog::MustParse("R/2: oo io\nT/2: io\nS/1: o\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "b").
    R("e", "d").
    T("b", "t1").
    T("d", "t2").
    S("d").
  )");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");

  DatabaseSource backend(&db, &catalog);
  ExecutionOptions options = GridOptions(1);
  options.runtime.cache = true;
  ExecutionResult result = Execute(query, catalog, &backend, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 2u);  // Q("a","t1"), Q("c","t1")
  EXPECT_EQ(LedgerOf(result.runtime), (Ledger{4, 0, 4, 0}));
}

TEST(OperatorDagTest, ExecutorCountersAccumulate) {
  // The DAG-side RuntimeStats: one executed disjunct per body, at least
  // one morsel per fetch operator reached, and anti-join build tuples
  // counted from the negated literal's probe sets.
  const Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: i\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("b").
  )");
  const ConjunctiveQuery query = MustParseRule("Q(x) :- R(x, z), not S(z).");

  DatabaseSource backend(&db, &catalog);
  ExecutionResult result =
      Execute(query, catalog, &backend, GridOptions(1));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 1u);  // Q("c") — S filters away "b"
  EXPECT_EQ(result.runtime.disjuncts_executed, 1u);
  EXPECT_GE(result.runtime.morsels, 2u);  // R scan + S anti-join
  EXPECT_EQ(result.runtime.antijoin_build_tuples, 1u);  // S("b") only

  // The reference loop runs no operators; its disjunct counter stays
  // zero. This is what makes `--no-batch` distinguishable in `--metrics`.
  DatabaseSource reference_backend(&db, &catalog);
  ExecutionResult reference =
      Execute(query, catalog, &reference_backend, ReferenceOptions());
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(reference.tuples, result.tuples);
  EXPECT_EQ(reference.runtime.disjuncts_executed, 0u);
}

TEST(OperatorDagTest, LoweringRendersTheCompiledChain) {
  // What `--explain` prints per disjunct: operator kind, access pattern,
  // estimated cost, root-first with arrow continuation and an implicit
  // Materialize sink.
  const Catalog catalog = Catalog::MustParse("R/2: oo\nT/2: io\nS/1: i\n");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");
  const StaticCostModel model;

  LoweredChain chain = LowerDisjunct(query, catalog, model);
  ASSERT_TRUE(chain.ok);
  ASSERT_EQ(chain.ops.size(), 3u);
  EXPECT_EQ(chain.ops[0].kind, OperatorKind::kAccessScan);
  EXPECT_EQ(chain.ops[1].kind, OperatorKind::kHashJoin);
  EXPECT_EQ(chain.ops[2].kind, OperatorKind::kHashAntiJoin);

  const std::string rendered = chain.ToString();
  EXPECT_NE(rendered.find("AccessScan R(x, z) via oo"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> HashJoin T(z, w) via io"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> HashAntiJoin not S(z) via i"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> Materialize"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("est_cost="), std::string::npos) << rendered;

  // A fully-bound positive literal at its position is a Filter, sharing
  // IsFilterLiteral with the planner's filters-first scheduling.
  const ConjunctiveQuery filter =
      MustParseRule("Q(x, z) :- R(x, z), T(z, x).");
  LoweredChain filter_chain = LowerDisjunct(filter, catalog, model);
  ASSERT_TRUE(filter_chain.ok);
  ASSERT_EQ(filter_chain.ops.size(), 2u);
  EXPECT_EQ(filter_chain.ops[1].kind, OperatorKind::kFilter);
}

}  // namespace
}  // namespace ucqn
