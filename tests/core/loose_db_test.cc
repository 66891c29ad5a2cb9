#include "core/loose_db.h"

#include <filesystem>

#include <gtest/gtest.h>

namespace lsd {
namespace {

TEST(LooseDbTest, AssertRetractRoundTrip) {
  LooseDb db;
  Fact f = db.Assert("A", "R", "B");
  EXPECT_TRUE(db.store().Contains(f));
  EXPECT_TRUE(db.Retract(f));
  EXPECT_FALSE(db.store().Contains(f));
  EXPECT_FALSE(db.Retract(f));
  EXPECT_TRUE(db.Retract("A", "R", "B").IsNotFound());
  EXPECT_TRUE(db.Retract("NO", "SUCH", "NAMES").IsNotFound());
}

TEST(LooseDbTest, StandardRulesInstalledByDefault) {
  LooseDb db;
  EXPECT_FALSE(db.rules().empty());
  EXPECT_TRUE(db.IsRuleEnabled("gen-source"));
  EXPECT_TRUE(db.IsRuleEnabled("inversion"));
}

TEST(LooseDbTest, BareDbHasNoRules) {
  LooseDbOptions options;
  options.standard_rules = false;
  LooseDb db(options);
  EXPECT_TRUE(db.rules().empty());
  db.Assert("JOHN", "IN", "EMPLOYEE");
  db.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  auto r = db.Query("(JOHN, WORKS-FOR, DEPARTMENT)");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truth);  // no inference without rules
}

TEST(LooseDbTest, ClosureIsCachedUntilMutation) {
  LooseDb db;
  db.Assert("A", "ISA", "B");
  auto v1 = db.View();
  ASSERT_TRUE(v1.ok());
  auto v2 = db.View();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);  // same cached pointer
  db.Assert("B", "ISA", "C");
  auto v3 = db.View();
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE((*v3)->Contains(
      Fact(*db.entities().Lookup("A"), kEntIsa,
           *db.entities().Lookup("C"))));
}

TEST(LooseDbTest, ClosureStatsAvailableAfterView) {
  LooseDb db;
  EXPECT_EQ(db.closure_stats(), nullptr);
  db.Assert("A", "ISA", "B");
  ASSERT_TRUE(db.View().ok());
  ASSERT_NE(db.closure_stats(), nullptr);
  EXPECT_GE(db.closure_stats()->rounds, 1u);
}

TEST(LooseDbTest, DefineRuleAndQuery) {
  LooseDb db;
  ASSERT_TRUE(
      db.DefineRule("pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)")
          .ok());
  db.Assert("JOHN", "IN", "EMPLOYEE");
  auto r = db.Query("(JOHN, EARNS, SALARY)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);
  // Duplicate names rejected.
  EXPECT_EQ(db.DefineRule("pay: (?X, IN, A) => (?X, IN, B)").code(),
            StatusCode::kAlreadyExists);
}

TEST(LooseDbTest, IntegrityFacade) {
  LooseDb db;
  db.Assert("JOHN", "LOVES", "MARY");
  EXPECT_TRUE(db.CheckIntegrity().ok());
  db.Assert("JOHN", "HATES", "MARY");
  db.Assert("LOVES", "CONTRA", "HATES");
  EXPECT_TRUE(db.CheckIntegrity().IsIntegrityViolation());
  auto violations = db.FindIntegrityViolations();
  ASSERT_TRUE(violations.ok());
  EXPECT_EQ(violations->size(), 1u);
}

TEST(LooseDbTest, LoadTextInstallsFactsAndRules) {
  LooseDb db;
  Status s = db.LoadText(
      "(JOHN, IN, EMPLOYEE)\n"
      "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto r = db.Query("(JOHN, EARNS, SALARY)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);
}

class LooseDbPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsd_db_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    prefix_ = (dir_ / "db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string prefix_;
};

TEST_F(LooseDbPersistenceTest, SaveOpenRoundTrip) {
  {
    LooseDb db;
    db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
    ASSERT_TRUE(
        db.DefineRule("pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)")
            .ok());
    ASSERT_TRUE(db.Save(prefix_).ok());
    // Mutations after Save land in the WAL.
    db.Assert("JOHN", "IN", "EMPLOYEE");
  }
  LooseDb restored;
  Status s = restored.Open(prefix_);
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto r = restored.Query("(JOHN, EARNS, SALARY)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);  // needs the snapshot rule + the WAL fact
  auto r2 = restored.Query("(JOHN, WORKS-FOR, SHIPPING)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->truth);
}

TEST_F(LooseDbPersistenceTest, OpenWithoutFilesStartsEmptyAndLogs) {
  {
    LooseDb db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    db.Assert("A", "R", "B");
  }
  LooseDb again;
  ASSERT_TRUE(again.Open(prefix_).ok());
  auto r = again.Query("(A, R, B)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);
}

TEST_F(LooseDbPersistenceTest, RetractionsSurviveRestart) {
  {
    LooseDb db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    Fact f = db.Assert("A", "R", "B");
    db.Assert("C", "R", "D");
    db.Retract(f);
  }
  LooseDb again;
  ASSERT_TRUE(again.Open(prefix_).ok());
  EXPECT_FALSE(again.Query("(A, R, B)")->truth);
  EXPECT_TRUE(again.Query("(C, R, D)")->truth);
}

TEST(LooseDbMemoryTest, ReportsPerTierBytes) {
  LooseDb db;
  db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  db.Assert("SHIPPING", "IN", "DEPARTMENT");
  db.Assert("JOHN", "IN", "EMPLOYEE");
  // A bulk run lands in the asserted tier as a frozen segment.
  std::vector<Fact> run;
  for (int i = 0; i < 300; ++i) {
    run.emplace_back(db.entities().Intern("P" + std::to_string(i)),
                     db.entities().Intern("LIKES"),
                     db.entities().Intern("Q" + std::to_string(i % 7)));
  }
  ASSERT_EQ(db.AssertRun(run), run.size());
  auto mem = db.MemoryUsage();
  ASSERT_TRUE(mem.ok());
  // The base tier is the store's asserted facts: columns, permutations,
  // and offset tables are all live.
  EXPECT_GT(mem->base.frozen.run_bytes, 0u);
  EXPECT_GT(mem->base.frozen.perm_bytes, 0u);
  EXPECT_GT(mem->base.frozen.offset_bytes, 0u);
  // The fact-at-a-time asserts sit in the overlay.
  EXPECT_GT(mem->base.overlay_bytes, 0u);
  // The standard rules derive facts, so the derived tier is non-empty.
  EXPECT_GT(mem->derived.total(), 0u);
  EXPECT_GT(mem->entity_bytes, 0u);
  EXPECT_EQ(mem->total(),
            mem->base.total() + mem->derived.total() + mem->entity_bytes);
  // Columnar CSR beats three sorted Fact arrays on the same fact set.
  EXPECT_LT(mem->base.total(),
            3 * sizeof(Fact) * db.store().size() + 4096);
}

// The asserted tier is compacted like the closure tiers, and a plan
// pinned before a retraction must not install: its merged generation
// still holds the retracted fact.
TEST(LooseDbCompactionTest, RetractAfterPinMakesStorePlanStale) {
  LooseDb db;
  std::vector<Fact> run;
  for (int i = 0; i < 300; ++i) {
    run.emplace_back(db.entities().Intern("P" + std::to_string(i)),
                     db.entities().Intern("LIKES"),
                     db.entities().Intern("Q" + std::to_string(i % 7)));
  }
  db.AssertRun(run);
  const Fact lone = db.Assert("X", "OWNS", "Y");  // an overlay fact
  ASSERT_TRUE(db.View().ok());
  auto plan = db.BuildCompactionPlan();
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->base.trivial());

  ASSERT_TRUE(db.Retract(lone));
  Status stale = db.InstallCompactedTiers(*plan);
  EXPECT_TRUE(stale.IsAborted()) << stale.ToString();
  EXPECT_FALSE(db.store().Contains(lone));

  // A fresh plan folds the tier without changing its contents.
  const std::vector<Fact> before = db.store().base().Materialize();
  auto fresh = db.BuildCompactionPlan();
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db.InstallCompactedTiers(*fresh).ok());
  EXPECT_EQ(db.store().base().segment_count(), 1u);
  EXPECT_EQ(db.store().base().overlay_size(), 0u);
  EXPECT_EQ(db.store().base().Materialize(), before);
  EXPECT_FALSE(db.Query("(X, OWNS, Y)")->truth);
}

TEST_F(LooseDbPersistenceTest, RuleTogglesSurviveRestart) {
  {
    LooseDb db;
    ASSERT_TRUE(db.Open(prefix_).ok());
    db.Assert("JOHN", "IN", "EMPLOYEE");
    db.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
    ASSERT_TRUE(db.SetRuleEnabled("mem-source", false).ok());
  }
  LooseDb again;
  ASSERT_TRUE(again.Open(prefix_).ok());
  EXPECT_FALSE(again.IsRuleEnabled("mem-source"));
  EXPECT_FALSE(again.Query("(JOHN, WORKS-FOR, DEPARTMENT)")->truth);
}

}  // namespace
}  // namespace lsd
