// Differential tests for the seed-first closure kernel (the semi-naive
// rounds shared by ComputeClosure and ExtendClosure: key-presence filter
// over the residual probes, chunked workers, per-worker dedup). On
// random rule sets over random stores the semi-naive closure must derive
// exactly what a brute-force std::set fixpoint and the naive strategy
// derive, at every thread count, both from scratch and maintained by
// ExtendClosure through mixed assert/retract batches; its probe counts
// must not depend on the thread count.
#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/math_provider.h"
#include "rules/rule_engine.h"
#include "store/fact_store.h"
#include "util/budget.h"
#include "util/random.h"

namespace lsd {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

// Brute-force fixpoint: naive rounds that match every rule body left to
// right against std::set indexes of everything known so far, until a
// round adds nothing. Shares no matching code with the engine; comparator
// atoms hold if the math layer or a stored fact says so.
class SetModel {
 public:
  SetModel(const FactStore& store, const MathProvider& math)
      : store_(store), math_(math) {}

  // The derived facts of the closure (everything not asserted), SRT
  // order; nullopt once the closure holds more than `limit` facts.
  std::optional<std::vector<Fact>> Derived(
      const std::vector<Rule>& rules,
      size_t limit = std::numeric_limits<size_t>::max()) {
    srt_.clear();
    rts_.clear();
    store_.base().ForEach(Pattern(), [this](const Fact& f) {
      Add(f);
      return true;
    });
    limit_ = limit;
    for (bool grew = true; grew;) {
      std::vector<Fact> found;
      for (const Rule& rule : rules) {
        if (!rule.enabled) continue;
        std::vector<EntityId> binding(rule.num_vars(), kAnyEntity);
        Match(rule, 0, &binding, &found);
      }
      grew = false;
      for (const Fact& f : found) grew = Add(f) || grew;
      if (srt_.size() > limit || found.size() > limit) return std::nullopt;
    }
    std::vector<Fact> out;
    for (const Fact& f : srt_) {
      if (!store_.Contains(f)) out.push_back(f);
    }
    return out;
  }

 private:
  bool Add(const Fact& f) {
    if (!srt_.insert(f).second) return false;
    rts_.insert(f);
    return true;
  }

  static EntityId Value(const Term& t, const std::vector<EntityId>& b) {
    return t.is_entity() ? t.entity() : b[t.var()];
  }

  // Binds the atom's variables to `f`'s components, recording the ones
  // it bound in `bound`; false on a clash with a constant or a binding.
  static bool Unify(const Template& atom, const Fact& f,
                    std::vector<EntityId>* b, std::vector<VarId>* bound) {
    const Term* terms[3] = {&atom.source, &atom.relationship, &atom.target};
    const EntityId values[3] = {f.source, f.relationship, f.target};
    for (int i = 0; i < 3; ++i) {
      const Term& t = *terms[i];
      if (t.is_entity()) {
        if (t.entity() != values[i]) return false;
        continue;
      }
      EntityId& slot = (*b)[t.var()];
      if (slot == kAnyEntity) {
        slot = values[i];
        bound->push_back(t.var());
      } else if (slot != values[i]) {
        return false;
      }
    }
    return true;
  }

  void Match(const Rule& rule, size_t i, std::vector<EntityId>* b,
             std::vector<Fact>* out) {
    if (out->size() > limit_) return;  // Derived gives up after the round
    if (i == rule.body.size()) {
      Emit(rule, *b, out);
      return;
    }
    const Template& atom = rule.body[i];
    const EntityId s = Value(atom.source, *b);
    const EntityId r = Value(atom.relationship, *b);
    const EntityId t = Value(atom.target, *b);
    auto visit = [&](const Fact& f) {
      std::vector<VarId> bound;
      if (Unify(atom, f, b, &bound)) Match(rule, i + 1, b, out);
      for (VarId v : bound) (*b)[v] = kAnyEntity;
    };
    if (r != kAnyEntity && MathProvider::IsComparator(r)) {
      // The generated rules bind a comparison's operands before it.
      ASSERT_TRUE(s != kAnyEntity && t != kAnyEntity) << rule.name;
      const Fact f(s, r, t);
      if (math_.Holds(f) || srt_.count(f) != 0) visit(f);
    } else if (s != kAnyEntity) {
      for (auto it = srt_.lower_bound(Fact(s, 0, 0));
           it != srt_.end() && it->source == s; ++it) {
        visit(*it);
      }
    } else if (r != kAnyEntity) {
      for (auto it = rts_.lower_bound(Fact(0, r, 0));
           it != rts_.end() && it->relationship == r; ++it) {
        visit(*it);
      }
    } else {
      for (const Fact& f : srt_) visit(f);
    }
  }

  void Emit(const Rule& rule, const std::vector<EntityId>& b,
            std::vector<Fact>* out) const {
    for (VarId v = 0; v < rule.num_vars(); ++v) {
      const bool is_class = store_.IsClassRelationship(b[v]);
      switch (rule.var_constraints[v]) {
        case VarConstraint::kClassRelationship:
          if (!is_class) return;
          break;
        case VarConstraint::kIndividualRelationship:
          if (is_class) return;
          break;
        case VarConstraint::kNone:
          break;
      }
    }
    for (const Template& head : rule.head) {
      const Fact f(Value(head.source, b), Value(head.relationship, b),
                   Value(head.target, b));
      if (MathProvider::IsComparator(f.relationship) && math_.Holds(f)) {
        continue;
      }
      out->push_back(f);
    }
  }

  const FactStore& store_;
  const MathProvider& math_;
  size_t limit_ = 0;
  std::set<Fact, OrderSrt> srt_;
  std::set<Fact, OrderRts> rts_;
};

// A random store plus a random rule set drawing on every residual-atom
// shape the kernel treats differently: a constant relationship keyed at
// either end, both ends bound, a constant entity, comparator atoms
// (single and in a three-atom body), class- and individual-relationship
// variables, a variable relationship keyed through INV, pure-virtual
// bodies and bodies with nothing left to join. The store is sparse
// (about two facts per entity, relationships skewed from R0 down to a
// sparse R4), so most keyed probes find nothing, as on the served
// datasets. Rule sets whose closure would pass kMaxClosure facts are
// redrawn to bound the test's cost; the draw reads only the model.
class Instance {
 public:
  static constexpr size_t kMaxClosure = 4000;

  explicit Instance(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 260; ++i) {
      things_.push_back(E("E" + std::to_string(i)));
    }
    for (int i = 0; i < 40; ++i) {
      numbers_.push_back(E(std::to_string(i)));
      things_.push_back(numbers_.back());
    }
    for (int i = 0; i < 5; ++i) rels_.push_back(E("R" + std::to_string(i)));
    // 600 facts: round 1 gives 8 workers a chunk each.
    while (store_.size() < 600) store_.Assert(RandomFact());
    for (int i = 0; i < 3; ++i) {
      store_.Assert(Fact(Pick(rels_), kEntInv, Pick(rels_)));
    }
    if (rng_.Bernoulli(0.5)) store_.MarkClassRelationship(rels_[4]);
    do {
      rules_.clear();
      BuildRules();
    } while (!SetModel(store_, math_).Derived(rules_, kMaxClosure));
  }

  FactStore& store() { return store_; }
  const MathProvider& math() const { return math_; }
  const std::vector<Rule>& rules() const { return rules_; }
  Rng& rng() { return rng_; }

  // A random fact of the skewed relationship mix.
  Fact RandomFact() {
    // Percent of facts per relationship: ISA, IN, R0..R4.
    static constexpr int kWeights[] = {10, 8, 30, 20, 16, 10, 6};
    int roll = static_cast<int>(rng_.Uniform(100));
    size_t i = 0;
    while (roll >= kWeights[i]) roll -= kWeights[i++];
    const EntityId r = i == 0 ? kEntIsa : i == 1 ? kEntIn : rels_[i - 2];
    return Fact(Pick(things_), r, Pick(things_));
  }

 private:
  EntityId E(const std::string& name) {
    return store_.entities().Intern(name);
  }
  EntityId Pick(const std::vector<EntityId>& from) {
    return from[rng_.Uniform(from.size())];
  }
  Term Rel() { return Term::Entity(Pick(rels_)); }
  // A head relationship: a user relationship, ISA or IN.
  Term HeadRel() {
    const uint64_t roll = rng_.Uniform(rels_.size() + 2);
    if (roll == rels_.size()) return Term::Entity(kEntIsa);
    if (roll == rels_.size() + 1) return Term::Entity(kEntIn);
    return Term::Entity(rels_[roll]);
  }
  Term Thing() { return Term::Entity(Pick(things_)); }
  Term Number() { return Term::Entity(Pick(numbers_)); }

  void BuildRules() {
    const Term isa = Term::Entity(kEntIsa);
    const Term inv = Term::Entity(kEntInv);
    const Term less = Term::Entity(kEntLess);
    const Term greater = Term::Entity(kEntGreater);
    auto add = [this](RuleBuilder&& b) {
      if (rng_.Bernoulli(0.7)) rules_.push_back(std::move(b).Build());
    };
    int n = 0;
    auto name = [&n](const char* shape) {
      return std::string(shape) + "-" + std::to_string(n++);
    };
    for (int copies = 0; copies < 2; ++copies) {
      {  // Rest keyed at its source (pin 0) or target (pin 1).
        RuleBuilder b(name("chain"));
        Term x = b.Var("X"), y = b.Var("Y"), z = b.Var("Z");
        add(std::move(b.Body(x, Rel(), y).Body(y, Rel(), z).Head(
            x, HeadRel(), z)));
      }
      {  // Both ends of the rest bound by the pin.
        RuleBuilder b(name("both"));
        Term x = b.Var("X"), y = b.Var("Y");
        add(std::move(
            b.Body(x, Rel(), y).Body(y, Rel(), x).Head(x, HeadRel(), y)));
      }
      {  // A constant entity in the rest (both ends bound) and in the pin.
        RuleBuilder b(name("const"));
        Term x = b.Var("X"), y = b.Var("Y");
        const Term k = Thing();
        add(std::move(
            b.Body(x, Rel(), y).Body(k, Rel(), y).Head(x, HeadRel(), k)));
      }
      {
        RuleBuilder b(name("const-pin"));
        Term x = b.Var("X"), y = b.Var("Y");
        add(std::move(b.Body(x, Rel(), Thing())
                          .Body(x, Rel(), y)
                          .Head(y, HeadRel(), x)));
      }
    }
    {  // A comparator rest atom (never keyed, never pinned).
      RuleBuilder b(name("cmp"));
      Term x = b.Var("X"), v = b.Var("N");
      add(std::move(b.Body(x, Rel(), v).Body(v, greater, Number()).Head(
          x, HeadRel(), v)));
    }
    {  // Three atoms, one a comparison: the general residual path.
      RuleBuilder b(name("cmp3"));
      Term x = b.Var("X"), v = b.Var("N"), m = b.Var("M");
      add(std::move(b.Body(x, Rel(), v)
                        .Body(x, Rel(), m)
                        .Body(v, less, m)
                        .Head(v, HeadRel(), m)));
    }
    {  // Three-atom chain.
      RuleBuilder b(name("chain3"));
      Term x = b.Var("X"), y = b.Var("Y"), z = b.Var("Z"), w = b.Var("W");
      add(std::move(b.Body(x, Rel(), y)
                        .Body(y, Rel(), z)
                        .Body(z, Rel(), w)
                        .Head(x, HeadRel(), w)));
    }
    {  // Class-relationship variable.
      RuleBuilder b(name("class"));
      Term x = b.Var("X"), r = b.Var("R", VarConstraint::kClassRelationship),
           y = b.Var("Y"), z = b.Var("Z");
      add(std::move(b.Body(x, r, y).Body(y, isa, z).Head(x, r, z)));
    }
    {  // Individual-relationship variable.
      RuleBuilder b(name("indiv"));
      Term x = b.Var("X"),
           r = b.Var("R", VarConstraint::kIndividualRelationship),
           y = b.Var("Y"), z = b.Var("Z");
      add(std::move(b.Body(x, isa, y).Body(y, r, z).Head(x, r, z)));
    }
    {  // Variable relationship keyed through INV: (r, INV, ?S).
      RuleBuilder b(name("inv"));
      Term x = b.Var("X"), r = b.Var("R"), y = b.Var("Y"), s = b.Var("S");
      add(std::move(b.Body(x, r, y).Body(r, inv, s).Head(y, s, x)));
    }
    {  // Nothing left to join once pinned.
      RuleBuilder b(name("copy"));
      Term x = b.Var("X"), y = b.Var("Y");
      add(std::move(b.Body(x, Rel(), y).Head(y, HeadRel(), x)));
    }
    for (int i = 0; i < 2; ++i) {  // Pure-virtual: fires once or never.
      RuleBuilder b(name("virtual"));
      add(std::move(b.Body(Number(), less, Number())
                        .Head(Thing(), HeadRel(), Thing())));
    }
  }

  Rng rng_;
  FactStore store_;
  MathProvider math_{&store_.entities()};
  std::vector<EntityId> things_;
  std::vector<EntityId> numbers_;
  std::vector<EntityId> rels_;
  std::vector<Rule> rules_;
};

std::vector<Fact> Derived(const Closure& closure) {
  std::vector<Fact> out = closure.derived().Match(Pattern());
  std::sort(out.begin(), out.end(), OrderSrt());
  return out;
}

ClosureOptions Options(ClosureOptions::Strategy strategy,
                       unsigned num_threads) {
  ClosureOptions options;
  options.strategy = strategy;
  options.num_threads = num_threads;
  return options;
}

// The counts a thread count must not change.
void ExpectSameAccounting(const ClosureStats& got, const ClosureStats& want,
                          const std::string& where) {
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.candidate_facts, want.candidate_facts) << where;
  EXPECT_EQ(got.probes, want.probes) << where;
  EXPECT_EQ(got.probes_skipped, want.probes_skipped) << where;
}

class ClosureDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClosureDifferentialTest, FromScratchMatchesModelAndNaive) {
  Instance inst(GetParam());
  const std::vector<Rule>& rules = inst.rules();
  RuleEngine engine(&inst.store(), &inst.math());
  const std::vector<Fact> want =
      *SetModel(inst.store(), inst.math()).Derived(rules);

  auto naive = engine.ComputeClosure(
      rules, Options(ClosureOptions::Strategy::kNaive, 1));
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(Derived(**naive), want);

  std::unique_ptr<Closure> first;
  for (unsigned threads : kThreadCounts) {
    const std::string where = "threads=" + std::to_string(threads);
    auto c = engine.ComputeClosure(
        rules, Options(ClosureOptions::Strategy::kSemiNaive, threads));
    ASSERT_TRUE(c.ok()) << where << ": " << c.status().ToString();
    EXPECT_EQ(Derived(**c), want) << where;
    if (first == nullptr) {
      first = std::move(*c);
      EXPECT_GT(first->stats().probes_skipped, 0u);
      EXPECT_LE(first->stats().probes_skipped, first->stats().probes);
    } else {
      ExpectSameAccounting((*c)->stats(), first->stats(), where);
    }
  }
}

// Every thread count maintains its own closure through the same batches
// (each mixing retracts, new facts and re-asserted derived facts) and
// must equal the model after each; the over-delete rounds' key filter
// must see the removed tier, or a consequence whose only support was
// retracted in the same batch survives.
TEST_P(ClosureDifferentialTest, ExtensionsMatchModel) {
  Instance inst(GetParam());
  const std::vector<Rule>& rules = inst.rules();
  FactStore& store = inst.store();
  RuleEngine engine(&store, &inst.math());
  std::vector<std::unique_ptr<Closure>> current;
  for (unsigned threads : kThreadCounts) {
    auto c = engine.ComputeClosure(
        rules, Options(ClosureOptions::Strategy::kSemiNaive, threads));
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    current.push_back(std::move(*c));
  }
  // Per step: the share of asserted facts retracted, new facts asserted.
  constexpr double kRetractShare[] = {0.05, 0.3, 0.15, 0.6};
  constexpr int kNewFacts[] = {40, 200, 100, 40};
  Rng& rng = inst.rng();
  for (int step = 0; step < 4; ++step) {
    std::vector<Fact> retract;
    store.base().ForEach(Pattern(), [&](const Fact& f) {
      const bool mark = f.relationship == kEntIn && f.target == kEntClassRel;
      if (!mark && rng.Bernoulli(kRetractShare[step])) retract.push_back(f);
      return true;
    });
    std::vector<Fact> assert_facts;
    for (int i = 0; i < kNewFacts[step]; ++i) {
      const Fact f = inst.RandomFact();
      if (!store.Contains(f)) assert_facts.push_back(f);
    }
    const std::vector<Fact> derived = Derived(*current[0]);
    for (size_t i = 0; i < derived.size(); i += 1 + derived.size() / 8) {
      assert_facts.push_back(derived[i]);
    }
    std::vector<Fact> removed;
    std::vector<Fact> added;
    store.RetractRun(retract, &removed);
    store.AssertRun(assert_facts, &added);
    const std::vector<Fact> want =
        *SetModel(store, inst.math()).Derived(rules);
    for (size_t k = 0; k < current.size(); ++k) {
      const std::string where = "step " + std::to_string(step) +
                                " threads=" +
                                std::to_string(kThreadCounts[k]);
      auto next = engine.ExtendClosure(
          rules, current[k]->derived().Clone(), current[k]->stats(), added,
          removed,
          Options(ClosureOptions::Strategy::kSemiNaive, kThreadCounts[k]));
      ASSERT_TRUE(next.ok()) << where << ": " << next.status().ToString();
      EXPECT_EQ(Derived(**next), want) << where;
      current[k] = std::move(*next);
      if (k > 0) {
        ExpectSameAccounting(current[k]->stats(), current[0]->stats(),
                             where);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

// The over-delete filter must include the removed tier: retracting both
// supports of a derived fact in one batch leaves their only matches in
// that tier.
TEST(ClosureKernelTest, OverDeleteProbesSeeTheRemovedTier) {
  FactStore store;
  MathProvider math(&store.entities());
  RuleEngine engine(&store, &math);
  RuleBuilder b("chain");
  Term x = b.Var("X"), y = b.Var("Y"), z = b.Var("Z");
  const EntityId a = store.entities().Intern("A");
  const EntityId bb = store.entities().Intern("B");
  const EntityId c = store.entities().Intern("C");
  b.Body(x, Term::Entity(a), y)
      .Body(y, Term::Entity(bb), z)
      .Head(x, Term::Entity(c), z);
  const std::vector<Rule> rules = {std::move(b).Build()};
  const Fact first = store.Assert("x", "A", "y");
  const Fact second = store.Assert("y", "B", "z");
  store.Assert("u", "A", "v");  // keeps A's and B's bitsets non-trivial
  store.Assert("v", "B", "w");
  for (unsigned threads : kThreadCounts) {
    const ClosureOptions options =
        Options(ClosureOptions::Strategy::kSemiNaive, threads);
    auto seed = engine.ComputeClosure(rules, options);
    ASSERT_TRUE(seed.ok());
    ASSERT_EQ((*seed)->derived().size(), 2u);
    std::vector<Fact> removed;
    store.RetractRun({first, second}, &removed);
    auto next = engine.ExtendClosure(rules, (*seed)->derived().Clone(),
                                     (*seed)->stats(), {}, removed, options);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(Derived(**next),
              std::vector<Fact>{Fact(store.entities().Intern("u"), c,
                                     store.entities().Intern("w"))})
        << "threads=" << threads;
    store.AssertRun({first, second});
  }
}

// A step-cap trip inside one worker stops the round: the call returns
// the budget's typed error at every thread count, no worker settles
// another stride against the tripped token, and the engine computes the
// closure normally afterwards.
TEST(ClosureKernelTest, StepCapTripReturnsTypedErrorAtEveryThreadCount) {
  Instance inst(7);
  RuleEngine engine(&inst.store(), &inst.math());
  constexpr uint64_t kCap = 2 * BudgetTicker::kStride;
  for (unsigned threads : kThreadCounts) {
    QueryBudget budget(std::chrono::hours(1), kCap);
    ClosureOptions options =
        Options(ClosureOptions::Strategy::kSemiNaive, threads);
    options.budget = &budget;
    auto c = engine.ComputeClosure(inst.rules(), options);
    ASSERT_FALSE(c.ok()) << "threads=" << threads;
    EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted)
        << c.status().ToString();
    EXPECT_EQ(budget.cancel_reason(), CancelReason::kBudget);
    EXPECT_LE(budget.steps(), kCap + threads * BudgetTicker::kStride);
  }
  auto c = engine.ComputeClosure(
      inst.rules(), Options(ClosureOptions::Strategy::kSemiNaive, 3));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(Derived(**c),
            *SetModel(inst.store(), inst.math()).Derived(inst.rules()));
}

}  // namespace
}  // namespace lsd
