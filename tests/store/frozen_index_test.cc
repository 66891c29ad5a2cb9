#include "store/frozen_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "store/triple_index.h"
#include "util/random.h"

namespace lsd {
namespace {

TEST(FrozenIndexTest, DeduplicatesInput) {
  FrozenIndex idx({Fact(1, 2, 3), Fact(1, 2, 3), Fact(4, 5, 6)});
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_TRUE(idx.Contains(Fact(1, 2, 3)));
  EXPECT_TRUE(idx.Contains(Fact(4, 5, 6)));
  EXPECT_FALSE(idx.Contains(Fact(1, 2, 4)));
}

TEST(FrozenIndexTest, FromTripleIndex) {
  TripleIndex dynamic;
  dynamic.Insert(Fact(1, 2, 3));
  dynamic.Insert(Fact(7, 8, 9));
  FrozenIndex frozen = FrozenIndex::FromTripleIndex(dynamic);
  EXPECT_EQ(frozen.size(), 2u);
  EXPECT_TRUE(frozen.Contains(Fact(7, 8, 9)));
}

// The frozen index must answer all 8 patterns identically to the
// dynamic one.
class FrozenIndexPatternTest : public ::testing::TestWithParam<int> {};

TEST_P(FrozenIndexPatternTest, AgreesWithDynamicIndex) {
  const int mask = GetParam();
  Rng rng(7);
  TripleIndex dynamic;
  for (int i = 0; i < 400; ++i) {
    dynamic.Insert(Fact(static_cast<EntityId>(rng.Uniform(10)),
                        static_cast<EntityId>(rng.Uniform(5)),
                        static_cast<EntityId>(rng.Uniform(10))));
  }
  FrozenIndex frozen = FrozenIndex::FromTripleIndex(dynamic);
  ASSERT_EQ(frozen.size(), dynamic.size());

  auto by_key = [](const Fact& a, const Fact& b) {
    return std::tuple(a.source, a.relationship, a.target) <
           std::tuple(b.source, b.relationship, b.target);
  };
  for (int trial = 0; trial < 40; ++trial) {
    Pattern p;
    if (mask & 1) p.source = static_cast<EntityId>(rng.Uniform(10));
    if (mask & 2) p.relationship = static_cast<EntityId>(rng.Uniform(5));
    if (mask & 4) p.target = static_cast<EntityId>(rng.Uniform(10));
    std::vector<Fact> want = dynamic.Match(p);
    std::vector<Fact> got = frozen.Match(p);
    std::sort(want.begin(), want.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, want) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBindingPatterns, FrozenIndexPatternTest,
                         ::testing::Range(0, 8));

// The two (?, r, ?) scan strategies (canonical-column filter vs RTS
// permutation gather) must produce the same fact set; only their
// emission order may differ.
TEST(FrozenIndexTest, RelScanModesAgree) {
  Rng rng(11);
  std::vector<Fact> facts;
  for (int i = 0; i < 600; ++i) {
    facts.push_back(Fact(static_cast<EntityId>(rng.Uniform(40)),
                         static_cast<EntityId>(rng.Uniform(6)),
                         static_cast<EntityId>(rng.Uniform(40))));
  }
  FrozenIndex direct(facts);
  FrozenIndex gather(facts);
  direct.set_rel_scan_mode(FrozenIndex::RelScanMode::kDirect);
  gather.set_rel_scan_mode(FrozenIndex::RelScanMode::kGather);
  auto by_key = [](const Fact& a, const Fact& b) {
    return std::tuple(a.source, a.relationship, a.target) <
           std::tuple(b.source, b.relationship, b.target);
  };
  for (EntityId r = 0; r < 6; ++r) {
    Pattern p(kAnyEntity, r, kAnyEntity);
    std::vector<Fact> from_direct = direct.Match(p);
    std::vector<Fact> from_gather = gather.Match(p);
    EXPECT_EQ(from_direct.size(), direct.CountMatches(p));
    std::sort(from_direct.begin(), from_direct.end(), by_key);
    std::sort(from_gather.begin(), from_gather.end(), by_key);
    EXPECT_EQ(from_direct, from_gather) << "relationship " << r;
  }
}

TEST(FrozenIndexTest, RelScanDirectPathStopsEarly) {
  std::vector<Fact> facts;
  for (EntityId i = 0; i < 10; ++i) facts.push_back(Fact(i, 2, i));
  FrozenIndex idx(std::move(facts));
  idx.set_rel_scan_mode(FrozenIndex::RelScanMode::kDirect);
  int seen = 0;
  bool completed =
      idx.ForEach(Pattern(kAnyEntity, 2, kAnyEntity), [&](const Fact&) {
        return ++seen < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 3);
}

TEST(FrozenIndexTest, EarlyStop) {
  std::vector<Fact> facts;
  for (EntityId i = 0; i < 10; ++i) facts.push_back(Fact(1, 2, i));
  FrozenIndex idx(std::move(facts));
  int seen = 0;
  bool completed =
      idx.ForEach(Pattern(1, kAnyEntity, kAnyEntity), [&](const Fact&) {
        return ++seen < 4;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 4);
}

// Without(facts) must be indistinguishable from a fresh build of the
// same facts minus those, on every binding pattern and every statistic.
TEST(FrozenIndexTest, WithoutEqualsRebuildWithoutTheFacts) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Fact> facts;
    const size_t n = 1 + rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) {
      facts.push_back(Fact(static_cast<EntityId>(rng.Uniform(20)),
                           static_cast<EntityId>(rng.Uniform(6)),
                           static_cast<EntityId>(rng.Uniform(20))));
    }
    const FrozenIndex full(facts);
    const std::vector<Fact> all = full.Materialize();
    // One to a few victims (repeats allowed), plus an absent fact.
    std::vector<Fact> victims;
    const size_t k = 1 + rng.Uniform(std::min<size_t>(all.size(), 8));
    for (size_t i = 0; i < k; ++i) {
      victims.push_back(all[rng.Uniform(all.size())]);
    }
    victims.push_back(Fact(99, 99, 99));
    const Fact victim = victims.front();
    std::vector<Fact> rest;
    for (const Fact& f : all) {
      if (std::find(victims.begin(), victims.end(), f) == victims.end()) {
        rest.push_back(f);
      }
    }
    const FrozenIndex cut = full.Without(victims);
    const FrozenIndex want(rest);
    ASSERT_EQ(cut.size(), want.size());
    for (const Fact& f : victims) EXPECT_FALSE(cut.Contains(f));
    EXPECT_EQ(cut.Materialize(), want.Materialize());
    EXPECT_EQ(cut.DistinctSources(), want.DistinctSources());
    EXPECT_EQ(cut.DistinctRelationships(), want.DistinctRelationships());
    EXPECT_EQ(cut.DistinctTargets(), want.DistinctTargets());
    // Absent facts leave a plain copy.
    EXPECT_EQ(cut.Without(victims).Materialize(), want.Materialize());
    for (int mask = 0; mask < 8; ++mask) {
      Pattern p;
      const Fact probe =
          rng.Bernoulli(0.5) ? victim : all[rng.Uniform(all.size())];
      if (mask & 1) p.source = probe.source;
      if (mask & 2) p.relationship = probe.relationship;
      if (mask & 4) p.target = probe.target;
      std::vector<Fact> got = cut.Match(p);
      std::vector<Fact> expect = want.Match(p);
      EXPECT_EQ(got, expect) << "mask " << mask;
      EXPECT_EQ(cut.CountMatches(p), want.CountMatches(p)) << "mask " << mask;
      if (p.BoundCount() == 2) {
        std::vector<EntityId> sa, sb;
        SortedIdSpan a, b;
        ASSERT_TRUE(cut.SortedFreeValues(p, &sa, &a));
        ASSERT_TRUE(want.SortedFreeValues(p, &sb, &b));
        EXPECT_EQ(std::vector<EntityId>(a.data, a.data + a.size),
                  std::vector<EntityId>(b.data, b.data + b.size));
      }
    }
  }
}

}  // namespace
}  // namespace lsd
