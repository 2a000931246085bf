// Differential test of the operator DAG's id kernels (wave dedup, hash
// join with selection vectors, hash anti-join, head projection from id
// columns) against the per-binding reference loop (batch = false), over
// seeded random chains that exercise every slot shape the kernels
// distinguish: constants at input and output slots, repeated variables,
// bound variables at output slots (probe filters), negated literals,
// heads with constants and null, and a source that breaks its contract
// (tuples that disagree at input slots, have the wrong arity, or carry a
// variable). Witnesses must agree in order, answers as sets, and errors
// word for word, at every morsel size and pipeline depth.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/database.h"
#include "eval/executor.h"
#include "eval/op/id_table.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {
namespace {

// Relations and their declared patterns: full scans, input-bound
// lookups, and an input-only relation that some positions cannot call.
constexpr const char* kSchema =
    "A/1: o\n"
    "B/2: oo io\n"
    "C/2: oo\n"
    "D/3: ooo ioi\n"
    "E/2: io\n"
    "F/3: iio ooo\n";

struct RelationShape {
  const char* name;
  std::size_t arity;
};
constexpr RelationShape kRelations[] = {{"A", 1}, {"B", 2}, {"C", 2},
                                        {"D", 3}, {"E", 2}, {"F", 3}};
constexpr const char* kVars[] = {"x", "y", "z", "w"};
constexpr const char* kDomain[] = {"a", "b", "c"};

// Wraps a source and appends contract-violating tuples to every answer
// of the relations in `noisy_`: for each real tuple a copy with its
// input slots rewritten (disagrees with the request), one tuple of the
// wrong arity, one carrying a variable, and the first real tuple again
// (a duplicate, which must keep its witness multiplicity). The extras
// depend only on the call's inputs, so the reference loop's per-binding
// calls and the DAG's deduplicated waves see the same answers.
class ContractViolatingSource : public Source {
 public:
  ContractViolatingSource(Source* inner, std::set<std::string> noisy)
      : inner_(inner), noisy_(std::move(noisy)) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    FetchResult result = inner_->Fetch(relation, pattern, inputs);
    if (!result.ok() || noisy_.count(relation) == 0) return result;
    std::vector<Tuple> extra;
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
    const std::size_t arity = inputs.size();
    extra.push_back(Tuple(arity + 1, Term::Constant("a")));
    Tuple with_var(arity, Term::Constant("a"));
    with_var[0] = Term::Variable("v");
    extra.push_back(std::move(with_var));
    if (!result.tuples.empty()) extra.push_back(result.tuples.front());
    result.tuples.insert(result.tuples.end(), extra.begin(), extra.end());
    return result;
  }

 private:
  Source* inner_;
  std::set<std::string> noisy_;
};

std::string Quote(const char* constant) {
  return std::string("\"") + constant + "\"";
}

// A random chain rule over kSchema. Positive literals draw variables
// from a small pool (so repeats and bound variables at output slots are
// common) with an occasional constant; negated literals use only bound
// variables and constants; head terms are mostly bound variables, with
// constants, null, and now and then a variable the body never binds.
std::string RandomRule(std::mt19937* rng, std::size_t head_arity) {
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(*rng);
  };
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(*rng) < p;
  };
  std::vector<std::string> bound;
  std::string body;
  const std::size_t literals = 1 + pick(4);
  for (std::size_t i = 0; i < literals; ++i) {
    const RelationShape& rel = kRelations[pick(std::size(kRelations))];
    const bool negated = !bound.empty() && i > 0 && chance(0.3);
    std::string lit = std::string(negated ? "not " : "") + rel.name + "(";
    std::vector<std::string> binds;
    for (std::size_t j = 0; j < rel.arity; ++j) {
      if (j > 0) lit += ", ";
      if (chance(0.15)) {
        lit += Quote(kDomain[pick(std::size(kDomain))]);
      } else if (negated) {
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
  for (std::size_t p = 0; p < head_arity; ++p) {
    if (p > 0) head += ", ";
    if (chance(0.1)) {
      head += "null";
    } else if (chance(0.15)) {
      head += Quote(kDomain[pick(std::size(kDomain))]);
    } else if (!bound.empty() && chance(0.85)) {
      head += bound[pick(bound.size())];
    } else {
      head += kVars[pick(std::size(kVars))];
    }
  }
  return head + ") :- " + body + ".";
}

std::string RandomFacts(std::mt19937* rng) {
  std::string facts;
  for (const RelationShape& rel : kRelations) {
    const std::size_t count =
        std::uniform_int_distribution<std::size_t>(0, 6)(*rng);
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

std::vector<std::string> Render(const std::vector<Substitution>& bindings) {
  std::vector<std::string> out;
  out.reserve(bindings.size());
  for (const Substitution& b : bindings) out.push_back(b.ToString());
  return out;
}

struct Knobs {
  std::size_t morsel_rows;
  std::size_t pipeline_depth;
};
constexpr Knobs kGrid[] = {{0, 1}, {0, 2}, {3, 1}, {3, 2}};

ExecutionOptions DagOptions(const Knobs& knobs) {
  ExecutionOptions options;
  options.morsel_rows = knobs.morsel_rows;
  options.runtime.pipeline_depth = knobs.pipeline_depth;
  return options;
}

ExecutionOptions ReferenceOptions() {
  ExecutionOptions options;
  options.batch = false;
  return options;
}

// Groups come out dense in first-insertion order and chains keep
// insertion order, through growth well past the initial size and after
// a Reset to a different width.
TEST(IdTableTest, GroupsInFirstOccurrenceOrderAndChainsInInsertionOrder) {
  IdTable table;
  table.Reset(2, 0);
  std::vector<std::uint32_t> groups;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::uint32_t key[2] = {i % 100, 7};
    bool fresh = false;
    const std::uint32_t group = table.FindOrAdd(key, &fresh);
    EXPECT_EQ(fresh, i < 100);
    EXPECT_EQ(group, i % 100);
    EXPECT_EQ(table.Append(group), i);
  }
  EXPECT_EQ(table.groups(), 100u);
  const std::uint32_t probe[2] = {42, 7};
  std::vector<std::uint32_t> chain;
  for (std::uint32_t e = table.First(table.Find(probe)); e != IdTable::kNone;
       e = table.Next(e)) {
    chain.push_back(e);
  }
  std::vector<std::uint32_t> expected;
  for (std::uint32_t e = 42; e < 1000; e += 100) expected.push_back(e);
  EXPECT_EQ(chain, expected);
  EXPECT_EQ(table.Key(42)[0], 42u);
  const std::uint32_t missing[2] = {42, 8};
  EXPECT_EQ(table.Find(missing), IdTable::kNone);

  // Width 0: every key is the one empty key.
  table.Reset(0, 4);
  bool fresh = false;
  EXPECT_EQ(table.FindOrAdd(nullptr, &fresh), 0u);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(table.FindOrAdd(nullptr, &fresh), 0u);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(table.groups(), 1u);
}

TEST(OperatorKernelTest, RandomChainsMatchTheReferenceLoop) {
  const Catalog catalog = Catalog::MustParse(kSchema);
  std::size_t nonempty = 0;
  std::size_t head_errors = 0;
  std::size_t answered = 0;
  for (std::uint32_t seed = 0; seed < 400; ++seed) {
    std::mt19937 rng(seed);
    const Database db = Database::MustParseFacts(RandomFacts(&rng));
    const std::string rule = RandomRule(&rng, 1 + seed % 3);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + rule);
    const ConjunctiveQuery q = MustParseRule(rule);
    DatabaseSource backend(&db, &catalog);
    std::set<std::string> noisy;
    for (const RelationShape& rel : kRelations) {
      if (rng() % 2 == 0) noisy.insert(rel.name);
    }
    ContractViolatingSource source(&backend, noisy);

    const BindingsResult ref_bindings =
        ExecuteForBindings(q, catalog, &source, ReferenceOptions());
    const ExecutionResult ref_answers =
        Execute(q, catalog, &source, ReferenceOptions());
    if (ref_bindings.ok && !ref_bindings.bindings.empty()) ++nonempty;
    if (!ref_answers.ok &&
        ref_answers.error.find("head not fully bound") != std::string::npos) {
      ++head_errors;
    }
    if (ref_answers.ok && !ref_answers.tuples.empty()) ++answered;

    for (const Knobs& knobs : kGrid) {
      SCOPED_TRACE("morsel_rows=" + std::to_string(knobs.morsel_rows) +
                   " pipeline_depth=" + std::to_string(knobs.pipeline_depth));
      const BindingsResult dag_bindings =
          ExecuteForBindings(q, catalog, &source, DagOptions(knobs));
      EXPECT_EQ(dag_bindings.ok, ref_bindings.ok);
      EXPECT_EQ(dag_bindings.error, ref_bindings.error);
      EXPECT_EQ(Render(dag_bindings.bindings), Render(ref_bindings.bindings));

      const ExecutionResult dag_answers =
          Execute(q, catalog, &source, DagOptions(knobs));
      EXPECT_EQ(dag_answers.ok, ref_answers.ok);
      EXPECT_EQ(dag_answers.error, ref_answers.error);
      EXPECT_EQ(dag_answers.tuples, ref_answers.tuples);
    }
  }
  // The corpus must actually reach the kernels and both head outcomes.
  EXPECT_GE(nonempty, 100u);
  EXPECT_GE(answered, 80u);
  EXPECT_GE(head_errors, 5u);
}

TEST(OperatorKernelTest, RandomUnionsProjectLikeTheReferenceLoop) {
  const Catalog catalog = Catalog::MustParse(kSchema);
  for (std::uint32_t seed = 0; seed < 150; ++seed) {
    std::mt19937 rng(1000 + seed);
    const Database db = Database::MustParseFacts(RandomFacts(&rng));
    const std::size_t arity = 1 + seed % 3;
    const std::string text =
        RandomRule(&rng, arity) + "\n" + RandomRule(&rng, arity);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    const UnionQuery q = MustParseUnionQuery(text);
    DatabaseSource backend(&db, &catalog);
    ContractViolatingSource source(&backend, {"B", "D", "F"});

    const ExecutionResult ref = Execute(q, catalog, &source,
                                        ReferenceOptions());
    for (std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
      for (const Knobs& knobs : kGrid) {
        ExecutionOptions options = DagOptions(knobs);
        options.disjunct_concurrency = concurrency;
        const ExecutionResult dag = Execute(q, catalog, &source, options);
        EXPECT_EQ(dag.ok, ref.ok);
        EXPECT_EQ(dag.tuples, ref.tuples);
        // Racing disjuncts report the first failure in round order, which
        // need not be the first in disjunct order; sequential unions
        // report exactly the reference loop's error.
        if (concurrency == 1) {
          EXPECT_EQ(dag.error, ref.error);
        }
      }
    }
  }
}

// The head check runs only when a row reaches the sink: a head variable
// the body never binds is an error with one witness and no error with
// none — on both engines, at every knob setting.
TEST(OperatorKernelTest, UnboundHeadFailsOnlyWhenARowExists) {
  const Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: o i\n");
  const ConjunctiveQuery q = MustParseRule("Q(x, w) :- R(x, y), not S(y).");
  const std::string error =
      "head not fully bound by executable body: " + q.ToString();
  struct Case {
    const char* facts;
    bool rows;
  };
  const Case cases[] = {
      {"R(\"a\", \"b\").\n", true},
      {"", false},                             // the scan finds nothing
      {"R(\"a\", \"b\").\nS(\"b\").\n", false},  // the anti-join kills it
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.facts);
    const Database db = Database::MustParseFacts(c.facts);
    std::vector<ExecutionOptions> all = {ReferenceOptions()};
    for (const Knobs& knobs : kGrid) all.push_back(DagOptions(knobs));
    for (const ExecutionOptions& options : all) {
      DatabaseSource source(&db, &catalog);
      const ExecutionResult result = Execute(q, catalog, &source, options);
      if (c.rows) {
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.error, error);
        EXPECT_TRUE(result.tuples.empty());
      } else {
        EXPECT_TRUE(result.ok) << result.error;
        EXPECT_TRUE(result.tuples.empty());
      }
    }
  }
}

}  // namespace
}  // namespace ucqn
