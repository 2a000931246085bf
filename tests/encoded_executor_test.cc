// Regression corpus for the dictionary-encoded executor (the operator
// DAG over columnar id frontiers): across the paper's worked examples
// (gen/scenarios.h, Examples 1-10) and the parallelism x pipeline-depth
// grid, ANSWER* brackets and summaries, witness order, and error
// messages must equal the per-binding reference loop's (batch = false).
// Runtime ledgers — physical calls, cache hits/misses, retries — must
// equal golden values recorded from the retired string-path executor,
// so any drift in wave dedup or chunking fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

ExecutionOptions GridOptions(std::size_t parallelism,
                             std::size_t pipeline_depth) {
  ExecutionOptions options;
  options.batch = true;
  options.runtime.metering = true;  // force a stack so depth > 1 engages
  options.runtime.parallelism = parallelism;
  options.runtime.pipeline_depth = pipeline_depth;
  return options;
}

ExecutionOptions ReferenceOptions() {
  ExecutionOptions options;
  options.batch = false;
  return options;
}

std::vector<std::string> BindingStrings(const BindingsResult& result) {
  std::vector<std::string> order;
  order.reserve(result.bindings.size());
  for (const Substitution& binding : result.bindings) {
    order.push_back(binding.ToString());
  }
  return order;
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

// The string-path executor's ANSWER* ledgers under LedgerOptions over a
// source failing every call signature's first attempt, recorded before
// that executor was deleted (the encoded loop and the DAG agreed with
// it on every row). Depth 2 dedups per pipelined chunk, hence its
// different hit counts.
struct GoldenRow {
  const char* scenario;
  std::size_t parallelism;
  std::size_t depth;
  Ledger ledger;
};
constexpr GoldenRow kGoldenLedgers[] = {
    {"example1_books", 1, 1, {6, 3, 3, 3}},
    {"example1_books", 1, 2, {6, 5, 3, 3}},
    {"example1_books", 4, 1, {6, 3, 3, 3}},
    {"example1_books", 4, 2, {6, 5, 3, 3}},
    {"example3_feasible_not_orderable", 1, 1, {4, 2, 2, 2}},
    {"example3_feasible_not_orderable", 1, 2, {4, 2, 2, 2}},
    {"example3_feasible_not_orderable", 4, 1, {4, 2, 2, 2}},
    {"example3_feasible_not_orderable", 4, 2, {4, 2, 2, 2}},
    {"example4_under_over", 1, 1, {6, 1, 3, 3}},
    {"example4_under_over", 1, 2, {6, 1, 3, 3}},
    {"example4_under_over", 4, 1, {6, 1, 3, 3}},
    {"example4_under_over", 4, 2, {6, 1, 3, 3}},
    {"example6_foreign_key", 1, 1, {6, 1, 3, 3}},
    {"example6_foreign_key", 1, 2, {6, 3, 3, 3}},
    {"example6_foreign_key", 4, 1, {6, 1, 3, 3}},
    {"example6_foreign_key", 4, 2, {6, 3, 3, 3}},
    {"example7_nulls", 1, 1, {6, 1, 3, 3}},
    {"example7_nulls", 1, 2, {6, 1, 3, 3}},
    {"example7_nulls", 4, 1, {6, 1, 3, 3}},
    {"example7_nulls", 4, 2, {6, 1, 3, 3}},
    {"example8_domain_enum", 1, 1, {6, 1, 3, 3}},
    {"example8_domain_enum", 1, 2, {6, 1, 3, 3}},
    {"example8_domain_enum", 4, 1, {6, 1, 3, 3}},
    {"example8_domain_enum", 4, 2, {6, 1, 3, 3}},
    {"example9_cq", 1, 1, {6, 1, 3, 3}},
    {"example9_cq", 1, 2, {6, 1, 3, 3}},
    {"example9_cq", 4, 1, {6, 1, 3, 3}},
    {"example9_cq", 4, 2, {6, 1, 3, 3}},
    {"example10_ucq", 1, 1, {6, 5, 3, 3}},
    {"example10_ucq", 1, 2, {6, 8, 3, 3}},
    {"example10_ucq", 4, 1, {6, 5, 3, 3}},
    {"example10_ucq", 4, 2, {6, 8, 3, 3}},
};

ExecutionOptions LedgerOptions(std::size_t parallelism,
                               std::size_t pipeline_depth) {
  ExecutionOptions options = GridOptions(parallelism, pipeline_depth);
  options.runtime.cache = true;
  options.runtime.retry = true;
  options.runtime.retry_policy.max_attempts = 3;
  return options;
}

TEST(EncodedExecutorTest, AnswerStarBracketsMatchTheReferenceAcrossTheGrid) {
  for (const Scenario& scenario : AllScenarios()) {
    DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
    AnswerStarReport reference =
        AnswerStar(scenario.query, scenario.catalog, &reference_backend,
                   ReferenceOptions());
    ASSERT_TRUE(reference.ok) << reference.error;
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(scenario.name + " parallelism=" +
                     std::to_string(parallelism) +
                     " depth=" + std::to_string(depth));
        DatabaseSource encoded_backend(&scenario.database, &scenario.catalog);
        AnswerStarReport encoded =
            AnswerStar(scenario.query, scenario.catalog, &encoded_backend,
                       GridOptions(parallelism, depth));
        ASSERT_TRUE(encoded.ok) << encoded.error;

        // The full bracket, byte for byte — including the null-padded
        // overestimate rows (Ex. 7) that exercise the Δ-null sentinel.
        EXPECT_EQ(encoded.under, reference.under);
        EXPECT_EQ(encoded.over, reference.over);
        EXPECT_EQ(encoded.delta, reference.delta);
        EXPECT_EQ(encoded.complete, reference.complete);
        EXPECT_EQ(encoded.delta_has_nulls, reference.delta_has_nulls);
        EXPECT_EQ(encoded.completeness_lower_bound,
                  reference.completeness_lower_bound);
        EXPECT_EQ(encoded.Summary(), reference.Summary());
      }
    }
  }
}

TEST(EncodedExecutorTest, LedgersMatchTheGoldenStringPathAcrossTheGrid) {
  const std::vector<Scenario> scenarios = AllScenarios();
  ASSERT_EQ(std::size(kGoldenLedgers), scenarios.size() * 4)
      << "every scenario x parallelism x depth needs a golden row";
  for (const GoldenRow& row : kGoldenLedgers) {
    SCOPED_TRACE(std::string(row.scenario) +
                 " parallelism=" + std::to_string(row.parallelism) +
                 " depth=" + std::to_string(row.depth));
    const Scenario* scenario = nullptr;
    for (const Scenario& s : scenarios) {
      if (s.name == row.scenario) scenario = &s;
    }
    ASSERT_NE(scenario, nullptr);
    DatabaseSource backend(&scenario->database, &scenario->catalog);
    FaultPlan faults;
    faults.fail_first_per_key = 1;
    FaultInjectingSource flaky(&backend, faults);
    AnswerStarReport report =
        AnswerStar(scenario->query, scenario->catalog, &flaky,
                   LedgerOptions(row.parallelism, row.depth));
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(LedgerOf(report.runtime), row.ledger);
  }
}

TEST(EncodedExecutorTest, WitnessOrderMatchesTheReferenceAcrossTheGrid) {
  for (const Scenario& scenario : AllScenarios()) {
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
    // Both estimate plans are executable by construction; every disjunct
    // must replay the reference loop's witness sequence exactly, not just
    // its set.
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
        for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
          SCOPED_TRACE(scenario.name + " disjunct=" + std::to_string(i) +
                       " parallelism=" + std::to_string(parallelism) +
                       " depth=" + std::to_string(depth));
          DatabaseSource encoded_backend(&scenario.database,
                                         &scenario.catalog);
          BindingsResult encoded =
              ExecuteForBindings(bodies[i], scenario.catalog,
                                 &encoded_backend,
                                 GridOptions(parallelism, depth));

          ASSERT_EQ(encoded.ok, reference.ok)
              << encoded.error << " vs " << reference.error;
          if (!reference.ok) {
            EXPECT_EQ(encoded.error, reference.error);
            continue;
          }
          EXPECT_EQ(BindingStrings(encoded), BindingStrings(reference));
        }
      }
    }
  }
}

TEST(EncodedExecutorTest, EncodedPathMatchesTheReferenceLoop) {
  // Against the per-binding reference semantics directly, on the plain
  // Execute entry point (no stack).
  for (const Scenario& scenario : AllScenarios()) {
    SCOPED_TRACE(scenario.name);
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);

    DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
    ExecutionResult reference = Execute(plans.under, scenario.catalog,
                                        &reference_backend, ReferenceOptions());
    ASSERT_TRUE(reference.ok) << reference.error;

    DatabaseSource encoded_backend(&scenario.database, &scenario.catalog);
    ExecutionResult encoded = Execute(plans.under, scenario.catalog,
                                      &encoded_backend, GridOptions(1, 1));
    ASSERT_TRUE(encoded.ok) << encoded.error;
    EXPECT_EQ(encoded.tuples, reference.tuples);
  }
}

TEST(EncodedExecutorTest, ErrorMessagesMatchTheReference) {
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
    SCOPED_TRACE(batch ? "encoded" : "reference");
    DatabaseSource backend(&db, &catalog);
    ExecutionOptions options = batch ? GridOptions(1, 1) : ReferenceOptions();
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
    ExecutionResult result =
        Execute(gap, catalog, &backend,
                batch ? GridOptions(1, 1) : ReferenceOptions());
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

TEST(EncodedExecutorTest, SharedCacheLedgerMatchesTheGoldenStringPath) {
  // With the cache on, hit/miss counts are part of the contract: the
  // packed id keys must group calls exactly like the string path's
  // textual keys did (golden values recorded from that path).
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
  ExecutionOptions options = GridOptions(1, 1);
  options.runtime.cache = true;
  ExecutionResult result = Execute(query, catalog, &backend, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 2u);  // Q("a","t1"), Q("c","t1")
  // 1 R scan + 2 T probes (b, d) + 1 S scan; every call a miss.
  EXPECT_EQ(LedgerOf(result.runtime), (Ledger{4, 0, 4, 0}));
}

}  // namespace
}  // namespace ucqn
