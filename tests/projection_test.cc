// Differential test of live-variable projection in the operator DAG: on
// the head-projecting path (Execute) every join drops the columns neither
// the head nor a later literal reads and merges duplicate rows under
// witness weights. Over seeded random chains and unions with dead
// variables, duplicate tuples, probe filters, repeated variables,
// constants, negation, heads with constants and null, and a source that
// breaks its contract, under the static model and under an adaptive model
// whose pattern choice flips with the live-binding count:
//   - answers and errors equal the reference loop's (batch = false) at
//     every morsel size, pipeline depth and disjunct concurrency;
//   - at the whole-frontier schedule, projecting Execute issues exactly
//     the (relation, pattern, requests) waves of non-projecting
//     ExecuteForBindings, and max_bindings fails with the reference
//     loop's text;
//   - a witness count past 2^64 saturates instead of wrapping.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/database.h"
#include "eval/executor.h"
#include "eval/frontier.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {
namespace {

// Every relation but E has a keyed and a scan pattern, so the adaptive
// model below has a choice to make at most positions.
constexpr const char* kSchema =
    "A/1: o\n"
    "B/2: oo io\n"
    "C/2: oo oi\n"
    "D/3: ooo ioo\n"
    "E/2: io\n"
    "F/3: iio ooo\n";

struct RelationShape {
  const char* name;
  std::size_t arity;
};
constexpr RelationShape kRelations[] = {{"A", 1}, {"B", 2}, {"C", 2},
                                        {"D", 3}, {"E", 2}, {"F", 3}};
constexpr const char* kVars[] = {"x", "y", "z", "w", "v"};
constexpr const char* kDomain[] = {"a", "b", "c"};

// Observed stats under which a keyed pattern wins for a single binding
// and the relation's scan wins from three bindings on: a keyed call costs
// 400 us plus 2 tuples, a scan 1000 us plus 6 tuples, once.
StatsCatalog FlippingStats() {
  StatsCatalog stats;
  auto record = [&stats](const char* relation, const char* word,
                         double latency, double fanout) {
    RelationStats observed;
    observed.calls = 10;
    observed.tuples = static_cast<std::uint64_t>(10 * fanout);
    observed.p50_latency_micros = latency;
    observed.mean_fanout = fanout;
    observed.fanout_calls = 10;
    stats.Record(relation, word, observed);
  };
  for (const char* keyed : {"B io", "C oi", "D ioo", "F iio"}) {
    const std::string entry(keyed);
    record(entry.substr(0, 1).c_str(), entry.substr(2).c_str(), 400.0, 2.0);
  }
  for (const char* scan : {"B oo", "C oo", "D ooo", "F ooo"}) {
    const std::string entry(scan);
    record(entry.substr(0, 1).c_str(), entry.substr(2).c_str(), 1000.0, 6.0);
  }
  return stats;
}

// Appends to every answer of the relations in `noisy_` a second copy of
// each tuple (duplicate witnesses), a copy with its input slots rewritten
// (disagrees with the request), a tuple of the wrong arity and one
// carrying a variable. The extras depend only on the call's inputs, so
// per-binding calls and deduplicated waves see the same answers.
class ContractViolatingSource : public Source {
 public:
  ContractViolatingSource(Source* inner, std::set<std::string> noisy)
      : inner_(inner), noisy_(std::move(noisy)) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    FetchResult result = inner_->Fetch(relation, pattern, inputs);
    if (!result.ok() || noisy_.count(relation) == 0) return result;
    std::vector<Tuple> extra = result.tuples;
    for (const Tuple& tuple : result.tuples) {
      Tuple off = tuple;
      bool changed = false;
      for (std::size_t j = 0; j < off.size(); ++j) {
        if (inputs[j].has_value()) {
          off[j] = Term::Constant("zz");
          changed = true;
        }
      }
      if (changed) extra.push_back(std::move(off));
    }
    extra.push_back(Tuple(inputs.size() + 1, Term::Constant("a")));
    Tuple with_var(inputs.size(), Term::Constant("a"));
    with_var[0] = Term::Variable("v");
    extra.push_back(std::move(with_var));
    result.tuples.insert(result.tuples.end(), extra.begin(), extra.end());
    return result;
  }

 private:
  Source* inner_;
  std::set<std::string> noisy_;
};

// Records every wave the executor issues as one line: relation, pattern
// word, then each request's inputs (`_` for an output slot).
class RecordingSource : public Source {
 public:
  explicit RecordingSource(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    return inner_->Fetch(relation, pattern, inputs);
  }

  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override {
    std::string wave = relation + " " + pattern.word() + ":";
    for (const std::vector<std::optional<Term>>& request : inputs) {
      wave += " (";
      for (const std::optional<Term>& input : request) {
        wave += input.has_value() ? input->ToString() : "_";
        wave += ",";
      }
      wave += ")";
    }
    waves.push_back(std::move(wave));
    return inner_->FetchBatch(relation, pattern, inputs);
  }

  std::vector<std::string> waves;

 private:
  Source* inner_;
};

std::string Quote(const char* constant) {
  return std::string("\"") + constant + "\"";
}

// A random chain rule over kSchema whose head reads only one or two of
// the body's variables, so most variables die somewhere along the chain.
// Positive literals reuse bound variables often (joins, probe filters,
// repeats inside a literal) with an occasional constant; negated literals
// use only bound variables and constants; head terms are mostly bound
// variables, with constants, null and now and then an unbound variable.
std::string RandomRule(std::mt19937* rng) {
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(*rng);
  };
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(*rng) < p;
  };
  std::vector<std::string> bound;
  std::string body;
  const std::size_t literals = 1 + pick(5);
  for (std::size_t i = 0; i < literals; ++i) {
    const RelationShape& rel = kRelations[pick(std::size(kRelations))];
    const bool negated = !bound.empty() && chance(0.25);
    std::string lit = std::string(negated ? "not " : "") + rel.name + "(";
    std::vector<std::string> binds;
    for (std::size_t j = 0; j < rel.arity; ++j) {
      if (j > 0) lit += ", ";
      if (chance(0.12)) {
        lit += Quote(kDomain[pick(std::size(kDomain))]);
      } else if (negated || (!bound.empty() && chance(0.35))) {
        lit += bound[pick(bound.size())];
      } else {
        const std::string var = kVars[pick(std::size(kVars))];
        lit += var;
        binds.push_back(var);
      }
    }
    lit += ")";
    for (const std::string& var : binds) bound.push_back(var);
    body += (i > 0 ? ", " : "") + lit;
  }
  std::string head = "Q(";
  const std::size_t arity = 1 + pick(2);
  for (std::size_t p = 0; p < arity; ++p) {
    if (p > 0) head += ", ";
    if (chance(0.08)) {
      head += "null";
    } else if (chance(0.1)) {
      head += Quote(kDomain[pick(std::size(kDomain))]);
    } else if (!bound.empty() && chance(0.95)) {
      head += bound[pick(bound.size())];
    } else {
      head += "u";
    }
  }
  return head + ") :- " + body + ".";
}

std::string RandomFacts(std::mt19937* rng) {
  std::string facts;
  for (const RelationShape& rel : kRelations) {
    const std::size_t count =
        std::uniform_int_distribution<std::size_t>(0, 8)(*rng);
    for (std::size_t t = 0; t < count; ++t) {
      facts += rel.name;
      facts += "(";
      for (std::size_t j = 0; j < rel.arity; ++j) {
        if (j > 0) facts += ", ";
        facts += Quote(kDomain[std::uniform_int_distribution<std::size_t>(
            0, std::size(kDomain) - 1)(*rng)]);
      }
      facts += ").\n";
    }
  }
  return facts;
}

struct Knobs {
  std::size_t morsel_rows;
  std::size_t pipeline_depth;
};
constexpr Knobs kGrid[] = {{0, 1}, {0, 2}, {3, 1}, {3, 2}};

// A random instance and a source over it with a random set of noisy
// relations, kept alive together.
struct Fixture {
  Database db;
  DatabaseSource backend;
  ContractViolatingSource source;

  Fixture(const Catalog* catalog, std::mt19937* rng)
      : db(Database::MustParseFacts(RandomFacts(rng))),
        backend(&db, catalog),
        source(&backend, Noisy(rng)) {}

  static std::set<std::string> Noisy(std::mt19937* rng) {
    std::set<std::string> noisy;
    for (const RelationShape& rel : kRelations) {
      if ((*rng)() % 2 == 0) noisy.insert(rel.name);
    }
    return noisy;
  }
};

class ProjectionTest : public ::testing::Test {
 protected:
  ProjectionTest()
      : catalog_(Catalog::MustParse(kSchema)),
        stats_(FlippingStats()),
        adaptive_(&stats_) {}

  // The two models every check runs under (null = the static default).
  std::vector<const CostModel*> Models() const {
    return {nullptr, &adaptive_};
  }

  static ExecutionOptions Options(const CostModel* model, bool batch,
                                  const Knobs& knobs = {0, 1}) {
    ExecutionOptions options;
    options.cost_model = model;
    options.batch = batch;
    options.morsel_rows = knobs.morsel_rows;
    options.runtime.pipeline_depth = knobs.pipeline_depth;
    return options;
  }

  Catalog catalog_;
  StatsCatalog stats_;
  AdaptiveCostModel adaptive_;
};

// The adaptive model's choice really does depend on the live-binding
// count, so a projecting join that priced by rows instead of witnesses
// would pick other patterns and issue other waves.
TEST_F(ProjectionTest, AdaptivePatternChoiceFlipsWithLiveBindings) {
  const Literal lookup = MustParseRule("Q(y) :- B(x, y).").body()[0];
  const BoundVariables bound{"x"};
  PlanContext one;
  one.live_bindings = 1.0;
  PlanContext many;
  many.live_bindings = 3.0;
  EXPECT_EQ(ChoosePattern(catalog_, lookup, bound, adaptive_, one)->word(),
            "io");
  EXPECT_EQ(ChoosePattern(catalog_, lookup, bound, adaptive_, many)->word(),
            "oo");
}

TEST_F(ProjectionTest, RandomChainsMatchTheReferenceLoop) {
  std::size_t answered = 0;
  std::size_t failed = 0;
  std::size_t flipped = 0;  // seeds whose waves differ between the models
  std::size_t capped = 0;   // max_bindings failures compared
  for (std::uint32_t seed = 0; seed < 300; ++seed) {
    std::mt19937 rng(seed);
    Fixture fixture(&catalog_, &rng);
    const std::string rule = RandomRule(&rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + rule);
    const ConjunctiveQuery q = MustParseRule(rule);

    std::vector<std::vector<std::string>> model_waves;
    for (const CostModel* model : Models()) {
      SCOPED_TRACE(model == nullptr ? "static" : "adaptive");
      const ExecutionResult ref =
          Execute(q, catalog_, &fixture.source, Options(model, false));
      if (ref.ok && !ref.tuples.empty()) ++answered;
      if (!ref.ok) ++failed;
      for (const Knobs& knobs : kGrid) {
        SCOPED_TRACE("morsel_rows=" + std::to_string(knobs.morsel_rows) +
                     " pipeline_depth=" +
                     std::to_string(knobs.pipeline_depth));
        const ExecutionResult dag =
            Execute(q, catalog_, &fixture.source, Options(model, true, knobs));
        EXPECT_EQ(dag.ok, ref.ok);
        EXPECT_EQ(dag.error, ref.error);
        EXPECT_EQ(dag.tuples, ref.tuples);
      }

      // Same waves with and without projection at the whole-frontier
      // schedule: merging keeps every live value's first occurrence, and
      // pricing reads witness counts.
      RecordingSource projected(&fixture.source);
      Execute(q, catalog_, &projected, Options(model, true));
      RecordingSource witnesses(&fixture.source);
      ExecuteForBindings(q, catalog_, &witnesses, Options(model, true));
      EXPECT_EQ(projected.waves, witnesses.waves);
      model_waves.push_back(projected.waves);

      // max_bindings reads witness counts: the reference loop's error.
      for (std::size_t cap : {1, 2, 5, 12}) {
        SCOPED_TRACE("max_bindings=" + std::to_string(cap));
        ExecutionOptions ref_options = Options(model, false);
        ExecutionOptions dag_options = Options(model, true);
        ref_options.max_bindings = cap;
        dag_options.max_bindings = cap;
        const ExecutionResult ref_cap =
            Execute(q, catalog_, &fixture.source, ref_options);
        const ExecutionResult dag_cap =
            Execute(q, catalog_, &fixture.source, dag_options);
        EXPECT_EQ(dag_cap.ok, ref_cap.ok);
        EXPECT_EQ(dag_cap.error, ref_cap.error);
        EXPECT_EQ(dag_cap.tuples, ref_cap.tuples);
        if (ref_cap.error.find("max_bindings") != std::string::npos) {
          ++capped;
        }
      }
    }
    if (model_waves[0] != model_waves[1]) ++flipped;
  }
  // The corpus must reach answers, failures, the cap, and pattern
  // decisions that the live-binding count changes.
  EXPECT_GE(answered, 150u);
  EXPECT_GE(failed, 20u);
  EXPECT_GE(capped, 100u);
  EXPECT_GE(flipped, 20u);
}

TEST_F(ProjectionTest, RandomUnionsMatchTheReferenceLoop) {
  for (std::uint32_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(5000 + seed);
    Fixture fixture(&catalog_, &rng);
    std::string text;
    const std::size_t disjuncts = 2 + seed % 2;
    for (std::size_t d = 0; d < disjuncts; ++d) {
      // One head arity per union: regenerate until the rule matches the
      // first one's.
      std::string rule = RandomRule(&rng);
      while (!text.empty() &&
             MustParseRule(rule).head_terms().size() !=
                 MustParseUnionQuery(text).disjuncts()[0].head_terms().size()) {
        rule = RandomRule(&rng);
      }
      text += rule + "\n";
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    const UnionQuery q = MustParseUnionQuery(text);
    for (const CostModel* model : Models()) {
      SCOPED_TRACE(model == nullptr ? "static" : "adaptive");
      const ExecutionResult ref =
          Execute(q, catalog_, &fixture.source, Options(model, false));
      for (std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
        for (const Knobs& knobs : kGrid) {
          ExecutionOptions options = Options(model, true, knobs);
          options.disjunct_concurrency = concurrency;
          const ExecutionResult dag =
              Execute(q, catalog_, &fixture.source, options);
          EXPECT_EQ(dag.ok, ref.ok);
          EXPECT_EQ(dag.error, ref.error);
          EXPECT_EQ(dag.tuples, ref.tuples);
        }
      }
    }
  }
}

// Q(x) :- A(x), R(x, y1), ..., R(x, y17) over one A row and 16 R rows per
// key: every y dies at once, so each frontier is one row whose weight
// multiplies by 16 per literal — 16^16 = 2^64 witnesses after R(x, y16).
// The count saturates there, so the cap just below 2^64 trips at that
// literal (a wrapping count would read 0 and pass); uncapped, the answer
// is still the one row.
TEST_F(ProjectionTest, WitnessCountsSaturateInsteadOfWrapping) {
  const Catalog catalog = Catalog::MustParse("A/1: o\nR/2: io\n");
  std::string facts = "A(\"a\").\n";
  for (int i = 0; i < 16; ++i) {
    facts += "R(\"a\", \"v" + std::to_string(i) + "\").\n";
  }
  const Database db = Database::MustParseFacts(facts);
  std::string rule = "Q(x) :- A(x)";
  for (int i = 1; i <= 17; ++i) rule += ", R(x, y" + std::to_string(i) + ")";
  const ConjunctiveQuery q = MustParseRule(rule + ".");

  DatabaseSource source(&db, &catalog);
  const ExecutionResult answers = Execute(q, catalog, &source);
  ASSERT_TRUE(answers.ok) << answers.error;
  EXPECT_EQ(answers.tuples, (std::set<Tuple>{{Term::Constant("a")}}));

  ExecutionOptions options;
  options.max_bindings = std::numeric_limits<std::size_t>::max() - 1;
  const ExecutionResult capped = Execute(q, catalog, &source, options);
  EXPECT_FALSE(capped.ok);
  EXPECT_EQ(capped.error, "execution exceeded max_bindings (" +
                              std::to_string(options.max_bindings) +
                              ") at literal R(x, y16)");
}

TEST(WitnessWeightTest, ArithmeticSaturates) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(SaturatingAdd(kMax - 1, 1), kMax);
  EXPECT_EQ(SaturatingAdd(kMax, 1), kMax);
  EXPECT_EQ(SaturatingMul(std::uint64_t{1} << 32, std::uint64_t{1} << 31),
            std::uint64_t{1} << 63);
  EXPECT_EQ(SaturatingMul(std::uint64_t{1} << 32, std::uint64_t{1} << 32),
            kMax);
}

// Gather, Retain and AppendRows carry the weights (empty = all 1), and
// the total saturates.
TEST(WitnessWeightTest, FrontierOperationsCarryWeights) {
  ColumnarFrontier frontier;
  frontier.AddVar("X");
  frontier.AddVar("Y");
  frontier.MutableColumn(0) = {10, 11, 12};
  frontier.MutableColumn(1) = {20, 21, 22};
  frontier.SetRows(3);
  EXPECT_EQ(frontier.TotalWeight(), 3u);
  frontier.SetWeights({2, 3, 5});
  EXPECT_EQ(frontier.TotalWeight(), 10u);

  const ColumnarFrontier gathered = frontier.Gather({2, 0, 2}, {1});
  EXPECT_EQ(gathered.vars(), std::vector<std::string>{"Y"});
  EXPECT_EQ(gathered.Column(0), (std::vector<std::uint32_t>{22, 20, 22}));
  EXPECT_EQ(gathered.weights(), (std::vector<std::uint64_t>{5, 2, 5}));

  ColumnarFrontier unweighted;
  unweighted.AddVar("X");
  unweighted.AddVar("Y");
  unweighted.MutableColumn(0) = {1};
  unweighted.MutableColumn(1) = {2};
  unweighted.SetRows(1);
  unweighted.AppendRows(frontier, 1, 3);
  EXPECT_EQ(unweighted.rows(), 3u);
  EXPECT_EQ(unweighted.Column(1), (std::vector<std::uint32_t>{2, 21, 22}));
  EXPECT_EQ(unweighted.weights(), (std::vector<std::uint64_t>{1, 3, 5}));

  frontier.Retain({0, 2});
  EXPECT_EQ(frontier.weights(), (std::vector<std::uint64_t>{2, 5}));
  frontier.SetWeights({std::numeric_limits<std::uint64_t>::max(), 1});
  EXPECT_EQ(frontier.TotalWeight(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace ucqn
