#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "query/expr.h"
#include "query/rewriter.h"
#include "query/scan.h"
#include "storage/table.h"

namespace bullfrog {
namespace {

TableSchema FlightsSchema() {
  return SchemaBuilder("flights")
      .AddColumn("flightid", ValueType::kString, /*nullable=*/false)
      .AddColumn("source", ValueType::kString)
      .AddColumn("dest", ValueType::kString)
      .AddColumn("capacity", ValueType::kInt64)
      .SetPrimaryKey({"flightid"})
      .Build();
}

Tuple Flight(const std::string& id, const std::string& src,
             const std::string& dst, int64_t cap) {
  return Tuple{Value::Str(id), Value::Str(src), Value::Str(dst),
               Value::Int(cap)};
}

TEST(ExprTest, EvalComparisons) {
  TableSchema s = FlightsSchema();
  Tuple row = Flight("AA101", "JFK", "LAX", 180);
  auto check = [&](ExprPtr e, bool expected) {
    auto bound = e->Bind(s);
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ((*bound)->Matches(row), expected) << e->ToString();
  };
  check(Eq(Col("flightid"), LitStr("AA101")), true);
  check(Eq(Col("flightid"), LitStr("AA102")), false);
  check(Ne(Col("source"), LitStr("LAX")), true);
  check(Gt(Col("capacity"), LitInt(100)), true);
  check(Le(Col("capacity"), LitInt(100)), false);
  check(Ge(Col("capacity"), LitInt(180)), true);
  check(Lt(Col("capacity"), LitInt(180)), false);
}

TEST(ExprTest, BooleanConnectives) {
  TableSchema s = FlightsSchema();
  Tuple row = Flight("AA101", "JFK", "LAX", 180);
  auto eval = [&](ExprPtr e) {
    return (*e->Bind(s))->Matches(row);
  };
  EXPECT_TRUE(eval(And(Eq(Col("source"), LitStr("JFK")),
                       Eq(Col("dest"), LitStr("LAX")))));
  EXPECT_FALSE(eval(And(Eq(Col("source"), LitStr("JFK")),
                        Eq(Col("dest"), LitStr("SFO")))));
  EXPECT_TRUE(eval(Or(Eq(Col("dest"), LitStr("SFO")),
                      Eq(Col("dest"), LitStr("LAX")))));
  EXPECT_TRUE(eval(Not(Eq(Col("dest"), LitStr("SFO")))));
}

TEST(ExprTest, ArithmeticAndDerivedColumns) {
  TableSchema s = FlightsSchema();
  Tuple row = Flight("AA101", "JFK", "LAX", 180);
  ExprPtr empty_seats = Sub(Col("capacity"), LitInt(30));
  auto bound = empty_seats->Bind(s);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ((*bound)->Eval(row).AsInt(), 150);
  ExprPtr half = Div(Col("capacity"), LitInt(2));
  EXPECT_DOUBLE_EQ((*half->Bind(s))->Eval(row).AsDouble(), 90.0);
  ExprPtr times = Mul(Col("capacity"), LitInt(2));
  EXPECT_EQ((*times->Bind(s))->Eval(row).AsInt(), 360);
  ExprPtr plus = Add(Col("capacity"), LitInt(1));
  EXPECT_EQ((*plus->Bind(s))->Eval(row).AsInt(), 181);
}

TEST(ExprTest, DivisionByZeroIsNull) {
  TableSchema s = FlightsSchema();
  Tuple row = Flight("AA101", "JFK", "LAX", 180);
  ExprPtr e = Div(Col("capacity"), LitInt(0));
  EXPECT_TRUE((*e->Bind(s))->Eval(row).is_null());
}

TEST(ExprTest, ThreeValuedNullSemantics) {
  TableSchema s = SchemaBuilder("t")
                      .AddColumn("a", ValueType::kInt64)
                      .Build();
  Tuple row{Value::Null()};
  // NULL = 1 is NULL -> does not match.
  EXPECT_FALSE((*Eq(Col("a"), LitInt(1))->Bind(s))->Matches(row));
  // NOT (NULL = 1) is still NULL -> does not match.
  EXPECT_FALSE((*Not(Eq(Col("a"), LitInt(1)))->Bind(s))->Matches(row));
  // a IS NULL matches.
  EXPECT_TRUE((*Expr::MakeIsNull(Col("a"))->Bind(s))->Matches(row));
  // NULL OR true is true.
  EXPECT_TRUE((*Or(Eq(Col("a"), LitInt(1)),
                   Expr::MakeIsNull(Col("a")))->Bind(s))->Matches(row));
  // NULL AND false is false; NULL AND true is NULL (no match).
  EXPECT_FALSE(
      (*And(Eq(Col("a"), LitInt(1)), LitInt(1))->Bind(s))->Matches(row));
}

TEST(ExprTest, InList) {
  TableSchema s = FlightsSchema();
  Tuple row = Flight("AA101", "JFK", "LAX", 180);
  ExprPtr e = Expr::MakeIn(Col("dest"),
                           {Value::Str("SFO"), Value::Str("LAX")});
  EXPECT_TRUE((*e->Bind(s))->Matches(row));
  ExprPtr miss = Expr::MakeIn(Col("dest"), {Value::Str("SEA")});
  EXPECT_FALSE((*miss->Bind(s))->Matches(row));
}

TEST(ExprTest, BindRejectsUnknownColumn) {
  TableSchema s = FlightsSchema();
  EXPECT_FALSE(Eq(Col("nope"), LitInt(1))->Bind(s).ok());
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  ExprPtr e = And(Eq(Col("a"), LitInt(1)),
                  Or(Eq(Col("b"), LitInt(2)), Eq(Col("a"), LitInt(3))));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(ExprTest, SplitAndJoinConjuncts) {
  ExprPtr e = And(And(Eq(Col("a"), LitInt(1)), Eq(Col("b"), LitInt(2))),
                  Eq(Col("c"), LitInt(3)));
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(e, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  ExprPtr joined = JoinConjuncts(conjuncts);
  ASSERT_NE(joined, nullptr);
  EXPECT_EQ(joined->kind(), ExprKind::kAnd);
  EXPECT_EQ(JoinConjuncts({}), nullptr);
  EXPECT_EQ(JoinConjuncts({conjuncts[0]}), conjuncts[0]);
}

TEST(ExprTest, MatchEqualityConjunctBothOrders) {
  std::string column;
  Value v;
  EXPECT_TRUE(MatchEqualityConjunct(Eq(Col("x"), LitInt(5)), &column, &v));
  EXPECT_EQ(column, "x");
  EXPECT_EQ(v.AsInt(), 5);
  EXPECT_TRUE(MatchEqualityConjunct(Eq(LitInt(6), Col("y")), &column, &v));
  EXPECT_EQ(column, "y");
  EXPECT_FALSE(MatchEqualityConjunct(Gt(Col("x"), LitInt(5)), &column, &v));
  EXPECT_FALSE(
      MatchEqualityConjunct(Eq(Col("x"), Col("y")), &column, &v));
}

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(FlightsSchema());
    ASSERT_TRUE(table_->CreateIndex("by_source", {"source"}, false,
                                    IndexKind::kHash)
                    .ok());
    ASSERT_TRUE(table_->Insert(Flight("AA101", "JFK", "LAX", 180)).ok());
    ASSERT_TRUE(table_->Insert(Flight("AA102", "JFK", "SFO", 150)).ok());
    ASSERT_TRUE(table_->Insert(Flight("UA900", "ORD", "LAX", 200)).ok());
  }
  std::unique_ptr<Table> table_;
};

TEST_F(ScanTest, NullPredicateScansAll) {
  auto rows = CollectWhere(*table_, nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(ScanTest, PkEqualityUsesIndex) {
  auto plan = PlanScan(*table_, Eq(Col("flightid"), LitStr("AA101")));
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->index, nullptr);
  EXPECT_EQ(plan->index->name(), "pk_flights");
  EXPECT_EQ(plan->residual, nullptr);
  auto rows = CollectWhere(*table_, Eq(Col("flightid"), LitStr("AA101")));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
}

TEST_F(ScanTest, SecondaryIndexWithResidual) {
  ExprPtr pred = And(Eq(Col("source"), LitStr("JFK")),
                     Gt(Col("capacity"), LitInt(160)));
  auto plan = PlanScan(*table_, pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->index, nullptr);
  EXPECT_EQ(plan->index->name(), "by_source");
  ASSERT_NE(plan->residual, nullptr);
  auto rows = CollectWhere(*table_, pred);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().second[0].AsString(), "AA101");
}

TEST_F(ScanTest, NonIndexedPredicateFallsBackToFullScan) {
  ExprPtr pred = Gt(Col("capacity"), LitInt(160));
  auto plan = PlanScan(*table_, pred);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->index, nullptr);
  auto rows = CollectWhere(*table_, pred);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(ScanTest, UnknownColumnIsError) {
  EXPECT_FALSE(PlanScan(*table_, Eq(Col("bogus"), LitInt(1))).ok());
}

TEST_F(ScanTest, EarlyStopFromCallback) {
  int seen = 0;
  auto plan = ScanWhere(*table_, nullptr, [&](RowId, const Tuple&) {
    return ++seen < 2;
  });
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(seen, 2);
}

// --- Rewriter: the §2.1 view-expansion analog --------------------------

class RewriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The paper's flight example: FLEWONINFO(fid, flightdate,
    // passenger_count, empty_seats, ...) from FLIGHTS x FLEWON.
    prov_.AddPassThrough("fid", "flights", "flightid");
    prov_.AddPassThrough("fid", "flewon", "flightid");
    prov_.AddPassThrough("flightdate", "flewon", "flightdate");
    prov_.AddPassThrough("passenger_count", "flewon", "passenger_count");
    prov_.AddDerived("empty_seats");  // capacity - passenger_count.
  }
  ColumnProvenance prov_;
  std::vector<std::string> inputs_{"flights", "flewon"};
};

TEST_F(RewriterTest, JoinKeyPredicateReplicatedToBothInputs) {
  // SELECT * FROM flewoninfo WHERE fid = 'AA101' — the paper's example:
  // the filter lands on both flights and flewon.
  ExprPtr pred = Eq(Col("fid"), LitStr("AA101"));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  ASSERT_NE(out.per_table.at("flights"), nullptr);
  ASSERT_NE(out.per_table.at("flewon"), nullptr);
  EXPECT_EQ(out.per_table.at("flights")->ToString(),
            "(flightid = 'AA101')");
  EXPECT_EQ(out.per_table.at("flewon")->ToString(), "(flightid = 'AA101')");
  EXPECT_EQ(out.dropped_conjuncts, 0u);
}

TEST_F(RewriterTest, SingleSourcePredicateLandsOnOneInput) {
  ExprPtr pred = And(Eq(Col("fid"), LitStr("AA101")),
                     Gt(Col("passenger_count"), LitInt(0)));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  // flights gets only the fid conjunct; flewon gets both.
  std::vector<ExprPtr> flights_conjuncts;
  SplitConjuncts(out.per_table.at("flights"), &flights_conjuncts);
  EXPECT_EQ(flights_conjuncts.size(), 1u);
  std::vector<ExprPtr> flewon_conjuncts;
  SplitConjuncts(out.per_table.at("flewon"), &flewon_conjuncts);
  EXPECT_EQ(flewon_conjuncts.size(), 2u);
}

TEST_F(RewriterTest, DerivedColumnPredicateDropped) {
  // A filter on empty_seats cannot be pushed anywhere (worst case §2.4):
  // both candidate sets stay unfiltered supersets.
  ExprPtr pred = Gt(Col("empty_seats"), LitInt(10));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  EXPECT_EQ(out.per_table.at("flights"), nullptr);
  EXPECT_EQ(out.per_table.at("flewon"), nullptr);
  EXPECT_EQ(out.dropped_conjuncts, 1u);
}

TEST_F(RewriterTest, MixedConjunctsPartiallyPushed) {
  ExprPtr pred = And(Eq(Col("fid"), LitStr("AA101")),
                     Gt(Col("empty_seats"), LitInt(10)));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  EXPECT_NE(out.per_table.at("flights"), nullptr);
  EXPECT_EQ(out.dropped_conjuncts, 1u);
}

TEST_F(RewriterTest, OrRequiresAllBranchesRewritable) {
  // (fid = 'A' OR empty_seats > 3) cannot be pushed: narrowing by the
  // fid half alone would exclude relevant tuples.
  ExprPtr pred = Or(Eq(Col("fid"), LitStr("A")),
                    Gt(Col("empty_seats"), LitInt(3)));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  EXPECT_EQ(out.per_table.at("flights"), nullptr);
  EXPECT_EQ(out.per_table.at("flewon"), nullptr);
  EXPECT_EQ(out.dropped_conjuncts, 1u);
}

TEST_F(RewriterTest, OrOfRewritableBranchesPushed) {
  ExprPtr pred = Or(Eq(Col("fid"), LitStr("A")), Eq(Col("fid"), LitStr("B")));
  RewrittenPredicates out = RewritePredicate(pred, prov_, inputs_);
  ASSERT_NE(out.per_table.at("flights"), nullptr);
  EXPECT_EQ(out.per_table.at("flights")->kind(), ExprKind::kOr);
}

TEST_F(RewriterTest, NullPredicateMeansEverythingRelevant) {
  RewrittenPredicates out = RewritePredicate(nullptr, prov_, inputs_);
  EXPECT_EQ(out.per_table.at("flights"), nullptr);
  EXPECT_EQ(out.per_table.at("flewon"), nullptr);
}

TEST_F(RewriterTest, RewriteExprForTableRenamesColumns) {
  ExprPtr e = Eq(Col("fid"), LitStr("X"));
  ExprPtr r = RewriteExprForTable(e, prov_, "flights");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->ToString(), "(flightid = 'X')");
  EXPECT_EQ(RewriteExprForTable(Col("flightdate"), prov_, "flights"),
            nullptr);
}

}  // namespace
}  // namespace bullfrog
