// Unit tests for the term dictionary: id lifecycle, the reserved Δ-null
// sentinel, encode/decode roundtrips, and the columnar frontier built on
// top of the ids.

#include "dict/term_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/term.h"
#include "eval/frontier.h"

namespace ucqn {
namespace {

TEST(TermDictionaryTest, InternIsStableAndDense) {
  TermDictionary dict;
  EXPECT_EQ(dict.size(), 1u);  // the reserved null slot

  const std::uint32_t a = dict.Intern("a");
  const std::uint32_t b = dict.Intern("b");
  EXPECT_EQ(a, 1u);  // constants are consecutive, starting after Δ-null
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(dict.Intern("a"), a);  // re-intern returns the same id forever
  EXPECT_EQ(dict.size(), 3u);

  EXPECT_EQ(dict.Decode(a), "a");
  EXPECT_EQ(dict.Decode(b), "b");
}

TEST(TermDictionaryTest, FindNeverInserts) {
  TermDictionary dict;
  EXPECT_EQ(dict.Find("ghost"), TermDictionary::kAbsentId);
  EXPECT_EQ(dict.size(), 1u);
  const std::uint32_t id = dict.Intern("ghost");
  EXPECT_EQ(dict.Find("ghost"), id);
}

TEST(TermDictionaryTest, NullSentinelIsDistinctFromTheConstantNull) {
  TermDictionary dict;
  // Δ-null owns id 0; the constant *spelled* "null" is an ordinary
  // constant with its own id (Ex. 7's null is a distinguished value,
  // not a string).
  EXPECT_EQ(dict.EncodeGround(Term::Null()), TermDictionary::kNullId);
  const std::uint32_t spelled = dict.Intern("null");
  EXPECT_NE(spelled, TermDictionary::kNullId);

  EXPECT_TRUE(dict.DecodeTerm(TermDictionary::kNullId).IsNull());
  const Term decoded = dict.DecodeTerm(spelled);
  EXPECT_FALSE(decoded.IsNull());
  EXPECT_EQ(decoded, Term::Constant("null"));
}

TEST(TermDictionaryTest, EncodeGroundRoundTripsEveryGroundTerm) {
  TermDictionary dict;
  const std::vector<Term> ground = {
      Term::Constant("a"), Term::Constant(""), Term::Constant("needs \"q\""),
      Term::Null(), Term::Constant("null")};
  for (const Term& t : ground) {
    EXPECT_EQ(dict.DecodeTerm(dict.EncodeGround(t)), t) << t.ToString();
  }
}

TEST(ColumnarFrontierTest, DefaultIsTheUnitFrontier) {
  ColumnarFrontier frontier;
  EXPECT_EQ(frontier.rows(), 1u);
  EXPECT_EQ(frontier.width(), 0u);

  TermDictionary dict;
  const Substitution unit = frontier.DecodeRow(0, dict);
  EXPECT_TRUE(unit.map().empty());
}

TEST(ColumnarFrontierTest, ColumnsDecodeInWitnessOrder) {
  TermDictionary dict;
  const std::uint32_t a = dict.Intern("a");
  const std::uint32_t b = dict.Intern("b");
  const std::uint32_t c = dict.Intern("c");

  ColumnarFrontier frontier;
  frontier.AddVar("X");
  frontier.AddVar("Y");
  frontier.MutableColumn(0) = {a, a, b};
  frontier.MutableColumn(1) = {b, c, c};
  frontier.SetRows(3);

  const std::vector<Substitution> rows = frontier.DecodeAll(dict);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(*rows[0].Lookup(Term::Variable("X")), Term::Constant("a"));
  EXPECT_EQ(*rows[0].Lookup(Term::Variable("Y")), Term::Constant("b"));
  EXPECT_EQ(*rows[1].Lookup(Term::Variable("Y")), Term::Constant("c"));
  EXPECT_EQ(*rows[2].Lookup(Term::Variable("X")), Term::Constant("b"));
}

TEST(ColumnarFrontierTest, RetainCompactsBySelectionVector) {
  TermDictionary dict;
  ColumnarFrontier frontier;
  frontier.AddVar("X");
  frontier.MutableColumn(0) = {dict.Intern("a"), dict.Intern("b"),
                               dict.Intern("c"), dict.Intern("d")};
  frontier.SetRows(4);

  frontier.Retain({0, 2});  // the anti-join's surviving rows
  EXPECT_EQ(frontier.rows(), 2u);
  const std::vector<Substitution> rows = frontier.DecodeAll(dict);
  EXPECT_EQ(*rows[0].Lookup(Term::Variable("X")), Term::Constant("a"));
  EXPECT_EQ(*rows[1].Lookup(Term::Variable("X")), Term::Constant("c"));

  frontier.Retain({});  // empty selection = empty frontier
  EXPECT_EQ(frontier.rows(), 0u);
}

TEST(ColumnarFrontierTest, GatherRepeatsAndReordersRows) {
  TermDictionary dict;
  ColumnarFrontier frontier;
  frontier.AddVar("X");
  frontier.AddVar("Y");
  frontier.MutableColumn(0) = {dict.Intern("a"), dict.Intern("b")};
  frontier.MutableColumn(1) = {dict.Intern("c"), dict.Intern("d")};
  frontier.SetRows(2);

  // A join's row selection: row 1 twice, then row 0.
  const ColumnarFrontier out = frontier.Gather({1, 1, 0});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.vars(), frontier.vars());
  EXPECT_EQ(out.ColumnOf("Y"), 1u);
  const std::vector<Substitution> rows = out.DecodeAll(dict);
  EXPECT_EQ(*rows[0].Lookup(Term::Variable("X")), Term::Constant("b"));
  EXPECT_EQ(*rows[1].Lookup(Term::Variable("Y")), Term::Constant("d"));
  EXPECT_EQ(*rows[2].Lookup(Term::Variable("X")), Term::Constant("a"));
  EXPECT_EQ(frontier.Gather({}).rows(), 0u);
}

TEST(ColumnarFrontierTest, ColumnOfFindsVariablesByName) {
  ColumnarFrontier frontier;
  frontier.AddVar("X");
  frontier.AddVar("Y");
  EXPECT_EQ(frontier.ColumnOf("X"), 0u);
  EXPECT_EQ(frontier.ColumnOf("Y"), 1u);
  EXPECT_EQ(frontier.ColumnOf("Z"), ColumnarFrontier::kNoColumn);
}

}  // namespace
}  // namespace ucqn
