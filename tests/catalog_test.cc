#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"

namespace bullfrog {
namespace {

TableSchema Simple(const std::string& name) {
  return SchemaBuilder(name)
      .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("v", ValueType::kString)
      .SetPrimaryKey({"id"})
      .Build();
}

TEST(SchemaTest, ColumnIndexLookup) {
  TableSchema s = Simple("t");
  EXPECT_EQ(*s.ColumnIndex("id"), 0u);
  EXPECT_EQ(*s.ColumnIndex("v"), 1u);
  EXPECT_FALSE(s.ColumnIndex("missing").has_value());
  EXPECT_TRUE(s.RequireColumn("missing").status().code() ==
              StatusCode::kInvalidArgument);
}

TEST(SchemaTest, PrimaryKeyIndices) {
  TableSchema s = SchemaBuilder("t")
                      .AddColumn("a", ValueType::kInt64)
                      .AddColumn("b", ValueType::kInt64)
                      .SetPrimaryKey({"b", "a"})
                      .Build();
  EXPECT_EQ(s.PrimaryKeyIndices(), (std::vector<size_t>{1, 0}));
}

TEST(SchemaTest, ProjectExtractsNamedColumns) {
  TableSchema s = Simple("t");
  Tuple row{Value::Int(3), Value::Str("x")};
  auto projected = s.Project(row, {"v", "id"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ((*projected)[0].AsString(), "x");
  EXPECT_EQ((*projected)[1].AsInt(), 3);
}

TEST(SchemaTest, BuilderCarriesConstraints) {
  TableSchema s = SchemaBuilder("child")
                      .AddColumn("id", ValueType::kInt64, false)
                      .AddColumn("pid", ValueType::kInt64)
                      .SetPrimaryKey({"id"})
                      .AddUnique("u_pid", {"pid"})
                      .AddForeignKey("fk_p", {"pid"}, "parent", {"id"})
                      .Build();
  ASSERT_EQ(s.unique_constraints().size(), 1u);
  EXPECT_EQ(s.unique_constraints()[0].name, "u_pid");
  ASSERT_EQ(s.foreign_keys().size(), 1u);
  EXPECT_EQ(s.foreign_keys()[0].parent_table, "parent");
}

TEST(SchemaTest, ToStringMentionsEverything) {
  const std::string s = Simple("orders").ToString();
  EXPECT_NE(s.find("orders"), std::string::npos);
  EXPECT_NE(s.find("PRIMARY KEY"), std::string::npos);
}

TEST(CatalogTest, CreateAndFind) {
  Catalog catalog;
  auto t = catalog.CreateTable(Simple("a"));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(catalog.FindTable("a"), *t);
  EXPECT_EQ(catalog.FindTable("b"), nullptr);
  EXPECT_TRUE(catalog.CreateTable(Simple("a")).status().IsAlreadyExists());
}

TEST(CatalogTest, RequireActiveRejectsRetired) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Simple("a")).ok());
  ASSERT_TRUE(catalog.Switch({}, {}, {"a"}).ok());
  // The big-flip semantics: client requests against the old schema are
  // rejected...
  auto active = catalog.RequireActive("a");
  EXPECT_EQ(active.status().code(), StatusCode::kSchemaMismatch);
  // ...but migration workers may still read it.
  EXPECT_TRUE(catalog.RequireReadable("a").ok());
  EXPECT_EQ(catalog.GetState("a"), TableState::kRetired);
}

TEST(CatalogTest, DropMakesTableUnreachable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Simple("a")).ok());
  ASSERT_TRUE(catalog.DropTable("a").ok());
  EXPECT_TRUE(catalog.RequireReadable("a").status().IsNotFound());
  EXPECT_EQ(catalog.GetState("a"), TableState::kDropped);
  // A dropped name can be reused.
  EXPECT_TRUE(catalog.CreateTable(Simple("a")).ok());
}

TEST(CatalogTest, SwitchPublishesEverythingInOneView) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Simple("old")).ok());
  const Catalog::ViewRef before = catalog.view();
  ASSERT_TRUE(catalog
                  .Switch({Simple("new1"), Simple("new2")},
                          {IndexSpec{"new2", "new2_v", {"v"}, false, true}},
                          {"old"})
                  .ok());
  EXPECT_EQ(catalog.GetState("new1"), TableState::kActive);
  EXPECT_EQ(catalog.GetState("old"), TableState::kRetired);
  EXPECT_NE(catalog.FindTable("new2")->FindIndex("new2_v"), nullptr);
  // A view taken before the switch sees none of it.
  EXPECT_EQ(before->Find("new1"), nullptr);
  EXPECT_EQ(before->GetState("old"), TableState::kActive);
}

TEST(CatalogTest, FailedSwitchPublishesNothing) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Simple("old")).ok());
  ASSERT_TRUE(catalog.CreateTable(Simple("taken")).ok());
  ASSERT_TRUE(catalog.CreateTable(Simple("gone")).ok());
  ASSERT_TRUE(catalog.DropTable("gone").ok());
  const Catalog::ViewRef before = catalog.view();
  // A taken output name, an index on a table the switch does not create,
  // and a retire of a table that is not active each fail the whole switch.
  EXPECT_TRUE(catalog.Switch({Simple("fresh"), Simple("taken")}, {}, {"old"})
                  .IsAlreadyExists());
  EXPECT_FALSE(catalog
                   .Switch({Simple("fresh")},
                           {IndexSpec{"old", "old_v", {"v"}, false, false}},
                           {"old"})
                   .ok());
  EXPECT_FALSE(catalog.Switch({Simple("fresh")}, {}, {"old", "gone"}).ok());
  EXPECT_FALSE(catalog.Switch({Simple("fresh")}, {}, {"missing"}).ok());
  EXPECT_EQ(catalog.view().ptr, before.ptr);
  EXPECT_EQ(catalog.FindTable("fresh"), nullptr);
  EXPECT_EQ(catalog.GetState("old"), TableState::kActive);
  EXPECT_EQ(catalog.FindTable("old")->FindIndex("old_v"), nullptr);
}

TEST(CatalogTest, UndoSwitchRestoresTheNamesAndInputs) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(Simple("old")).ok());
  ASSERT_TRUE(catalog.Switch({Simple("fresh")}, {}, {"old"}).ok());
  catalog.UndoSwitch({Simple("fresh")}, {"old"});
  EXPECT_EQ(catalog.FindTable("fresh"), nullptr);
  EXPECT_EQ(catalog.GetState("old"), TableState::kActive);
  // The freed name can be switched in again.
  EXPECT_TRUE(catalog.Switch({Simple("fresh")}, {}, {"old"}).ok());
}

TEST(CatalogTest, PkAndUniqueIndexesAutoCreated) {
  Catalog catalog;
  auto t = catalog.CreateTable(SchemaBuilder("u")
                                   .AddColumn("id", ValueType::kInt64, false)
                                   .AddColumn("email", ValueType::kString)
                                   .SetPrimaryKey({"id"})
                                   .AddUnique("u_email", {"email"})
                                   .Build());
  ASSERT_TRUE(t.ok());
  EXPECT_NE((*t)->FindIndex("pk_u"), nullptr);
  EXPECT_NE((*t)->FindIndex("u_email"), nullptr);
  EXPECT_TRUE((*t)->FindIndex("u_email")->unique());
}

}  // namespace
}  // namespace bullfrog
