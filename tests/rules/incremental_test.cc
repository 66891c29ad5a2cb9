// Closure maintenance on the served path (RuleEngine::ExtendClosure via
// LooseDb::View): asserts extend the cached closure semi-naively,
// retracts delete-and-rederive, and after every step the maintained
// closure equals ComputeClosure from scratch, fact for fact — on a plain
// LooseDb, on SharedStore commits (with compaction, snapshot + WAL
// recovery and a follower replaying the primary's records alongside).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "rules/rule_engine.h"
#include "server/shared_store.h"
#include "util/budget.h"
#include "util/random.h"

namespace lsd {
namespace {

// Facts of a source by name, sorted: comparable across databases whose
// entity ids differ.
std::vector<std::string> Names(const EntityTable& e, const FactSource& src) {
  std::vector<std::string> out;
  src.ForEach(Pattern(), [&](const Fact& f) {
    out.push_back(e.Name(f.source) + " " + e.Name(f.relationship) + " " +
                  e.Name(f.target));
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The maintained stored closure (asserted ∪ derived). Virtual layers
// only answer bound-relationship patterns, so the wildcard enumeration is
// exactly the materialized tiers.
std::vector<std::string> Maintained(const LooseDb& db) {
  auto view = db.View();
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.ok() ? Names(db.entities(), **view)
                   : std::vector<std::string>();
}

// Expects two sorted fact lists to be equal, reporting only the facts
// one has and the other lacks.
void ExpectSameFacts(const std::vector<std::string>& got,
                     const std::vector<std::string>& want,
                     const std::string& where) {
  std::vector<std::string> extra;
  std::vector<std::string> missing;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::string report;
  for (const std::string& f : extra) report += "\n  extra: " + f;
  for (const std::string& f : missing) report += "\n  missing: " + f;
  EXPECT_TRUE(report.empty()) << where << report;
}

// Checks `db`'s maintained closure against ComputeClosure from scratch
// over the same store and rules: the same facts, and the same derived
// count (the tiers stay disjoint).
void ExpectMatchesRecompute(const LooseDb& db, const std::string& where) {
  const std::vector<std::string> maintained = Maintained(db);
  MathProvider math(&db.entities());
  RuleEngine engine(&db.store(), &math);
  auto fresh = engine.ComputeClosure(db.rules());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectSameFacts(maintained, Names(db.entities(), (*fresh)->view()), where);
  ASSERT_NE(db.closure_stats(), nullptr);
  EXPECT_EQ(db.closure_stats()->derived_facts, (*fresh)->derived().size())
      << where;
}

class IncrementalTest : public ::testing::Test {
 protected:
  // A closure is cached before the first mutation, so every later step
  // goes through maintenance rather than a first computation.
  IncrementalTest() { EXPECT_TRUE(db_.View().ok()); }

  EntityId E(const char* name) { return db_.entities().Intern(name); }

  Fact Assert(const char* s, const char* r, const char* t) {
    Fact f = db_.Assert(s, r, t);
    EXPECT_TRUE(db_.View().ok());
    return f;
  }

  void Retract(const Fact& f) {
    ASSERT_TRUE(db_.Retract(f));
    ASSERT_TRUE(db_.View().ok());
  }

  bool Holds(const Fact& f) {
    auto view = db_.View();
    return view.ok() && (*view)->Contains(f);
  }

  const ClosureStats& Stats() { return *db_.closure_stats(); }

  void ExpectEquivalentToRecompute() { ExpectMatchesRecompute(db_, "db"); }

  LooseDb db_;
};

TEST_F(IncrementalTest, AssertPropagatesConsequences) {
  const size_t recomputes = Stats().full_recomputes;
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("JOHN", "IN", "EMPLOYEE");
  EXPECT_TRUE(Holds(Fact(E("JOHN"), E("WORKS-FOR"), E("DEPARTMENT"))));
  EXPECT_EQ(Stats().full_recomputes, recomputes);
  EXPECT_EQ(Stats().extensions, 2u);
  ExpectEquivalentToRecompute();
}

// ExtendClosure's preconditions are checked, not assumed: an added fact
// must already be asserted.
TEST_F(IncrementalTest, AssertRequiresFactInBase) {
  MathProvider math(&db_.entities());
  RuleEngine engine(&db_.store(), &math);
  auto seed = engine.ComputeClosure(db_.rules());
  ASSERT_TRUE(seed.ok());
  auto ext = engine.ExtendClosure(db_.rules(), (*seed)->derived().Clone(),
                                  (*seed)->stats(),
                                  {Fact(E("A"), E("R"), E("B"))}, {});
  EXPECT_EQ(ext.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalTest, AssertingADerivedFactKeepsLayersDisjoint) {
  Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  Fact transitive(E("A"), kEntIsa, E("C"));
  EXPECT_TRUE(Holds(transitive));
  const size_t derived = Stats().derived_facts;
  const size_t recomputes = Stats().full_recomputes;
  // Now assert the derived fact explicitly: it moves to the asserted
  // tier without a recompute.
  Assert("A", "ISA", "C");
  EXPECT_EQ(Stats().derived_facts, derived - 1);
  EXPECT_EQ(Stats().full_recomputes, recomputes);
  EXPECT_TRUE(Holds(transitive));
  ExpectEquivalentToRecompute();
}

TEST_F(IncrementalTest, RetractDeletesConsequences) {
  Fact isa = Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  EXPECT_TRUE(Holds(Fact(E("A"), kEntIsa, E("C"))));
  Retract(isa);
  EXPECT_FALSE(Holds(Fact(E("A"), kEntIsa, E("C"))));
  ExpectEquivalentToRecompute();
}

TEST_F(IncrementalTest, RetractRederivesAlternativeSupport) {
  // Diamond: (A ISA C) derivable through B and through B2.
  Fact through_b = Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  Assert("A", "ISA", "B2");
  Assert("B2", "ISA", "C");
  EXPECT_TRUE(Holds(Fact(E("A"), kEntIsa, E("C"))));
  const size_t recomputes = Stats().full_recomputes;
  const size_t retracts = Stats().retract_maintenances;
  Retract(through_b);
  // Still supported via B2, and maintained without a recompute.
  EXPECT_TRUE(Holds(Fact(E("A"), kEntIsa, E("C"))));
  EXPECT_EQ(Stats().full_recomputes, recomputes);
  EXPECT_EQ(Stats().retract_maintenances, retracts + 1);
  ExpectEquivalentToRecompute();
}

TEST_F(IncrementalTest, RetractedBaseFactMayBeRederivable) {
  Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  // Assert the transitive fact as a base fact too, then retract it: it
  // must survive as a derived fact.
  Fact transitive = Assert("A", "ISA", "C");
  const size_t derived = Stats().derived_facts;
  Retract(transitive);
  EXPECT_TRUE(Holds(transitive));
  EXPECT_FALSE(db_.store().Contains(transitive));
  EXPECT_EQ(Stats().derived_facts, derived + 1);
  ExpectEquivalentToRecompute();
}

// ... and a removed fact must really be gone from the store.
TEST_F(IncrementalTest, RetractRequiresFactGoneFromBase) {
  Fact f = Assert("A", "R", "B");
  MathProvider math(&db_.entities());
  RuleEngine engine(&db_.store(), &math);
  auto seed = engine.ComputeClosure(db_.rules());
  ASSERT_TRUE(seed.ok());
  auto ext = engine.ExtendClosure(db_.rules(), (*seed)->derived().Clone(),
                                  (*seed)->stats(), {}, {f});
  EXPECT_EQ(ext.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalTest, InversionChainMaintained) {
  Fact inv = Assert("TEACHES", "INV", "TAUGHT-BY");
  Assert("HARRY", "TEACHES", "CS100");
  EXPECT_TRUE(Holds(Fact(E("CS100"), E("TAUGHT-BY"), E("HARRY"))));
  Retract(inv);
  EXPECT_FALSE(Holds(Fact(E("CS100"), E("TAUGHT-BY"), E("HARRY"))));
  ExpectEquivalentToRecompute();
}

// A maintenance that trips its budget has consumed the cached tier (View
// moves it into ExtendClosure rather than copying it): the error reaches
// the caller, the cache is gone, and the next View() recomputes a closure
// equal to a fresh one.
TEST_F(IncrementalTest, BudgetTrippedExtensionRecomputesOnNextView) {
  std::vector<Fact> members;
  for (int i = 0; i < 20; ++i) {
    const std::string level = "L" + std::to_string(i);
    Assert(level.c_str(), "ISA", ("L" + std::to_string(i + 1)).c_str());
    members.push_back(db_.Assert(("M" + std::to_string(i)).c_str(), "IN",
                                 level.c_str()));
  }
  ASSERT_TRUE(db_.View().ok());
  ASSERT_EQ(db_.RetractRun(members), members.size());
  QueryBudget budget(std::chrono::hours(1), /*max_steps=*/1);
  db_.set_read_budget(&budget);
  auto tripped = db_.View();
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(db_.closure_stats(), nullptr);
  db_.set_read_budget(nullptr);
  ExpectEquivalentToRecompute();
  EXPECT_EQ(Stats().full_recomputes, 1u);
}

// A compaction plan pinned before a retract must not install after it:
// the merged generation was built from facts the retract erased. When the
// erased consequence sits in a frozen derived segment the segment is
// rebuilt, so the prefix identity check alone catches it; when it sits in
// the derived overlay every segment survives and only the derived tier's
// history() tells the plan is stale.
TEST(IncrementalCompactionTest, PlanPinnedBeforeRetractAborts) {
  for (const bool in_overlay : {false, true}) {
    SCOPED_TRACE(in_overlay ? "overlay consequence" : "frozen consequence");
    LooseDbOptions options;
    options.standard_rules = false;
    LooseDb db(options);
    // One bulk run: the asserted tier is a single segment, so its plan
    // is trivial and cannot mask the derived tier's check.
    std::vector<Fact> facts;
    auto fact = [&](const std::string& s, const char* r,
                    const std::string& t) {
      return Fact(db.entities().Intern(s), db.entities().Intern(r),
                  db.entities().Intern(t));
    };
    for (int i = 0; i < 300; ++i) {
      facts.push_back(fact("E" + std::to_string(i), "R",
                           "F" + std::to_string(i)));
    }
    facts.push_back(fact("X", "P", "Y"));
    facts.push_back(fact("Y", "T0", "Z"));
    ASSERT_EQ(db.AssertRun(facts), facts.size());
    // Round 1 derives 301 facts (one frozen segment); round 2 derives
    // (X, U, Z) alone (the derived overlay).
    ASSERT_TRUE(db.DefineRule("flip: (?A, R, ?B) => (?B, S, ?A)").ok());
    ASSERT_TRUE(db.DefineRule("lift: (?A, T0, ?B) => (?A, T, ?B)").ok());
    ASSERT_TRUE(
        db.DefineRule("join: (?A, P, ?B), (?B, T, ?C) => (?A, U, ?C)").ok());
    ASSERT_TRUE(db.View().ok());
    const Fact consequence = in_overlay ? fact("X", "U", "Z")
                                        : fact("F0", "S", "E0");
    ASSERT_TRUE((*db.View())->Contains(consequence));

    auto plan = db.BuildCompactionPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(plan->base.trivial());
    ASSERT_EQ(plan->derived.old_segments.size(), 1u);

    ASSERT_TRUE(db.Retract(in_overlay ? fact("X", "P", "Y")
                                      : fact("E0", "R", "F0")));
    ASSERT_TRUE(db.View().ok());
    ASSERT_FALSE((*db.View())->Contains(consequence));
    EXPECT_TRUE(db.InstallCompactedTiers(*plan).IsAborted());
    EXPECT_FALSE((*db.View())->Contains(consequence));
    ExpectMatchesRecompute(db, "after the aborted install");
  }
}

// Randomized differential run. Every step is applied three ways — to a
// plain LooseDb fact by fact, to a durable SharedStore primary as one
// commit of point calls, and to a follower SharedStore as the records
// the primary logs, replayed in runs the way a replication follower
// applies a shipped chunk — and after every step each maintained closure
// must equal its own recompute from scratch, and all three must agree.
// Compaction of the primary under a pinned epoch and recovery from its
// snapshot + WAL are interleaved.
class IncrementalRandomTest : public ::testing::TestWithParam<uint64_t> {};

struct Op {
  enum Kind { kAssert, kRetract, kDisable, kEnable } kind;
  std::string s, r, t;  // the fact, or the rule name in `s`
};

void ApplyPointwise(LooseDb& db, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kAssert:
        db.Assert(op.s, op.r, op.t);
        break;
      case Op::kRetract:
        (void)db.Retract(op.s, op.r, op.t);
        break;
      case Op::kDisable:
      case Op::kEnable:
        ASSERT_TRUE(db.SetRuleEnabled(op.s, op.kind == Op::kEnable).ok());
        break;
    }
  }
}

// The follower's apply: consecutive asserts and consecutive retracts land
// as runs (RunLoader), anything else flushes the run first.
Status ApplyAsFollower(LooseDb& db, const std::vector<Op>& ops) {
  RunLoader<LooseDb> loader(&db);
  EntityTable& e = db.entities();
  for (const Op& op : ops) {
    if (op.kind == Op::kAssert) {
      loader.Assert(Fact(e.Intern(op.s), e.Intern(op.r), e.Intern(op.t)));
    } else if (op.kind == Op::kRetract) {
      auto s = e.Lookup(op.s);
      auto r = e.Lookup(op.r);
      auto t = e.Lookup(op.t);
      if (s && r && t) loader.Retract(Fact(*s, *r, *t));
    } else {
      loader.Flush();
      LSD_RETURN_IF_ERROR(db.SetRuleEnabled(op.s, op.kind == Op::kEnable));
    }
  }
  return Status::OK();
}

TEST_P(IncrementalRandomTest, AlwaysEquivalentToRecompute) {
  char tmpl[] = "/tmp/lsd_incremental.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string prefix = std::string(tmpl) + "/db";

  LooseDb solo;
  ASSERT_TRUE(solo.View().ok());
  SharedStore primary;
  SharedStoreDurability durability;
  durability.sync = WalSync::kFlush;
  durability.checkpoint_bytes = 2048;  // a few snapshots per run
  ASSERT_TRUE(primary.OpenDurable(prefix, durability).ok());
  SharedStore follower;

  // Candidate facts: a small taxonomy, memberships, data facts and the
  // meta-relationships (SYN, INV) the standard rules rewrite through.
  const std::vector<std::vector<std::string>> pool = {
      {"C1", "ISA", "C2"},     {"C2", "ISA", "C3"},
      {"C3", "ISA", "C4"},     {"C1B", "ISA", "C2"},
      {"M1", "IN", "C1"},      {"M2", "IN", "C1B"},
      {"C2", "HAS", "X"},      {"C3", "LIKES", "Y"},
      {"HAS", "INV", "OWNED-BY"}, {"HAS", "SYN", "POSSESSES"},
      {"C1", "SYN", "C1B"},    {"M1", "LIKES", "C4"},
      {"LIKES", "ISA", "HAS"}, {"C4", "IN", "C5"}};
  const std::vector<std::string> rule_names = {"gen-source", "mem-source",
                                               "mem-up", "inversion"};
  // What the solo database asserts, mirrored by name.
  auto asserted = [&](const std::vector<std::string>& f) {
    auto s = solo.entities().Lookup(f[0]);
    auto r = solo.entities().Lookup(f[1]);
    auto t = solo.entities().Lookup(f[2]);
    return s && r && t && solo.store().Contains(Fact(*s, *r, *t));
  };

  Rng rng(GetParam());
  for (int step = 0; step < 40; ++step) {
    const std::string where =
        "seed " + std::to_string(GetParam()) + " step " + std::to_string(step);
    std::vector<Op> ops;
    bool structural = false;  // a step that legitimately recomputes
    const uint64_t kind = rng.Uniform(10);
    if (kind < 5) {
      // Assert runs, retract runs and mixed batches.
      const size_t n = 1 + rng.Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        const auto& f = pool[rng.Uniform(pool.size())];
        const bool retract = kind >= 2 && asserted(f) && rng.Bernoulli(0.6);
        ops.push_back(
            {retract ? Op::kRetract : Op::kAssert, f[0], f[1], f[2]});
      }
    } else if (kind < 7) {
      // Re-assert a fact the closure currently derives.
      std::vector<std::vector<std::string>> derived;
      auto view = solo.View();
      ASSERT_TRUE(view.ok());
      (*view)->ForEach(Pattern(), [&](const Fact& f) {
        if (!solo.store().Contains(f)) {
          derived.push_back({solo.entities().Name(f.source),
                             solo.entities().Name(f.relationship),
                             solo.entities().Name(f.target)});
        }
        return true;
      });
      if (derived.empty()) continue;
      const auto& f = derived[rng.Uniform(derived.size())];
      ops.push_back({Op::kAssert, f[0], f[1], f[2]});
      // A derived class-relationship mark, asserted, is still a mark.
      structural = f[1] == "IN" && f[2] == "CLASS-REL";
    } else if (kind < 8) {
      // Mark or unmark a class relationship.
      const std::string rel = rng.Bernoulli(0.5) ? "HAS" : "LIKES";
      const std::vector<std::string> mark = {rel, "IN", "CLASS-REL"};
      ops.push_back({asserted(mark) ? Op::kRetract : Op::kAssert, mark[0],
                     mark[1], mark[2]});
      structural = true;
    } else {
      // Toggle a rule.
      const std::string& name = rule_names[rng.Uniform(rule_names.size())];
      ops.push_back({solo.IsRuleEnabled(name) ? Op::kDisable : Op::kEnable,
                     name, "", ""});
      structural = true;
    }

    const size_t recomputes = solo.closure_stats()->full_recomputes;
    ApplyPointwise(solo, ops);
    ExpectMatchesRecompute(solo, where + " (solo)");
    if (!structural) {
      EXPECT_EQ(solo.closure_stats()->full_recomputes, recomputes) << where;
    }

    auto committed = primary.Commit([&](LooseDb& db) {
      ApplyPointwise(db, ops);
      return Status::OK();
    });
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ExpectMatchesRecompute(primary.snapshot()->db(), where + " (primary)");
    auto replayed = follower.Commit(
        [&](LooseDb& db) { return ApplyAsFollower(db, ops); });
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ExpectMatchesRecompute(follower.snapshot()->db(), where + " (follower)");

    const std::vector<std::string> expected = Maintained(solo);
    ExpectSameFacts(Maintained(primary.snapshot()->db()), expected, where);
    ExpectSameFacts(Maintained(follower.snapshot()->db()), expected, where);

    if (rng.Uniform(4) == 0) {
      // Compaction under a pinned epoch: the pin keeps its answers, the
      // new tip keeps the closure.
      EpochPtr pin = primary.snapshot();
      const std::vector<std::string> pinned = Maintained(pin->db());
      ASSERT_TRUE(primary.CompactOnce().ok());
      ExpectSameFacts(Maintained(pin->db()), pinned, where);
      ExpectSameFacts(Maintained(primary.snapshot()->db()), expected, where);
    }
    if (rng.Uniform(5) == 0) {
      // Snapshot + WAL recovery lands on the same closure.
      LooseDb recovered;
      ASSERT_TRUE(recovered.Recover(prefix).ok()) << where;
      ExpectSameFacts(Maintained(recovered), expected, where);
    }
  }
  std::string rm = std::string("rm -rf ") + tmpl;
  (void)std::system(rm.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LooseDbIncrementalTest, BrowsingWorksUnderIncrementalMode) {
  LooseDb db;
  db.Assert("JOHN", "IN", "EMPLOYEE");
  db.Assert("EMPLOYEE", "ISA", "PERSON");
  db.Assert("JOHN", "LIKES", "FELIX");
  ASSERT_TRUE(db.View().ok());
  db.Assert("FELIX", "IN", "CAT");  // maintained, not recomputed

  auto hood = db.Navigate("JOHN");
  ASSERT_TRUE(hood.ok());
  bool person = false;
  for (EntityId c : hood->classes) {
    if (db.entities().Name(c) == "PERSON") person = true;
  }
  EXPECT_TRUE(person);

  // Probing rebuilds the lattice against the maintained closure.
  db.Assert("INTERN", "ISA", "EMPLOYEE");
  db.Assert("MANAGES", "ISA", "WORKS-FOR");
  db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  auto probe = db.Probe("(JOHN, MANAGES, SHIPPING)");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->successes.size(), 1u);
  EXPECT_EQ(probe->successes[0].substitutions[0].Describe(db.entities()),
            "WORKS-FOR instead of MANAGES");
  EXPECT_EQ(db.closure_stats()->full_recomputes, 1u);
}

// The maintained database answers exactly like one that recomputes on
// every change (the naive strategy never extends).
TEST(LooseDbIncrementalTest, FacadeModeMatchesRecomputeMode) {
  LooseDb maintained;
  LooseDbOptions recompute_options;
  recompute_options.closure.strategy = ClosureOptions::Strategy::kNaive;
  LooseDb recomputed(recompute_options);

  auto mutate = [&](auto&& fn) {
    fn(maintained);
    fn(recomputed);
  };
  auto expect_same = [&](const char* query) {
    auto q1 = maintained.Query(query);
    auto q2 = recomputed.Query(query);
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    EXPECT_EQ(q1->rows, q2->rows) << query;
  };
  mutate([](LooseDb& db) { db.Assert("JOHN", "IN", "EMPLOYEE"); });
  ASSERT_TRUE(maintained.View().ok());
  mutate([](LooseDb& db) {
    db.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  });
  mutate([](LooseDb& db) { db.Assert("EMPLOYEE", "ISA", "PERSON"); });
  expect_same("(JOHN, ?R, ?X)");

  mutate([](LooseDb& db) {
    db.Retract("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  });
  expect_same("(JOHN, ?R, ?X)");

  // Rule toggles force a rebuild but stay correct.
  mutate([](LooseDb& db) {
    (void)db.SetRuleEnabled("mem-source", false);
  });
  expect_same("(JOHN, ?R, ?X)");
  EXPECT_EQ(maintained.closure_stats()->full_recomputes, 2u);
  EXPECT_EQ(maintained.closure_stats()->retract_maintenances, 1u);
}

}  // namespace
}  // namespace lsd
