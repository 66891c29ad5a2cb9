// Property tests for the columnar CSR FrozenIndex:
//  - it is observationally equivalent to the dynamic TripleIndex: all 8
//    binding patterns (Match and exact CountMatches), the Contains probe
//    and the SortedFreeValues contract on every two-bound shape;
//  - its linear-time build (counting passes over dense ids) produces the
//    same arrays, column for column, as a reference build that sorts the
//    permutations with OrderRts/OrderTsr, across random and edge shapes;
//  - DeltaIndex's geometric tail-merge yields the same arrays as a
//    from-scratch build of the union.
// This is the safety net under the storage layer: any drift in the
// offset tables or the permutations shows up here first.
#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "store/delta_index.h"
#include "store/frozen_index.h"
#include "store/triple_index.h"
#include "util/random.h"

namespace lsd {

class FrozenIndexTestPeer {
 public:
  static const std::vector<EntityId>& Rel(const FrozenIndex& f) {
    return f.rel_;
  }
  static const std::vector<EntityId>& Tgt(const FrozenIndex& f) {
    return f.tgt_;
  }
  static const std::vector<uint32_t>& SrcOffsets(const FrozenIndex& f) {
    return f.src_offsets_;
  }
  static const std::vector<uint32_t>& RtsPerm(const FrozenIndex& f) {
    return f.rts_perm_;
  }
  static const std::vector<uint32_t>& RelOffsets(const FrozenIndex& f) {
    return f.rel_offsets_;
  }
  static const std::vector<uint32_t>& TsrPerm(const FrozenIndex& f) {
    return f.tsr_perm_;
  }
  static const std::vector<uint32_t>& TgtOffsets(const FrozenIndex& f) {
    return f.tgt_offsets_;
  }
};

namespace {

using Peer = FrozenIndexTestPeer;

struct Shape {
  uint64_t seed;
  size_t facts;
  EntityId sources;
  EntityId rels;
  EntityId targets;
};

std::vector<Fact> RandomFacts(Rng& rng, const Shape& s) {
  std::vector<Fact> facts;
  facts.reserve(s.facts);
  for (size_t i = 0; i < s.facts; ++i) {
    facts.emplace_back(static_cast<EntityId>(rng.Uniform(s.sources)),
                       static_cast<EntityId>(rng.Uniform(s.rels)),
                       static_cast<EntityId>(rng.Uniform(s.targets)));
  }
  return facts;
}

std::vector<Fact> Sorted(std::vector<Fact> facts) {
  std::sort(facts.begin(), facts.end(), [](const Fact& a, const Fact& b) {
    return std::tuple(a.source, a.relationship, a.target) <
           std::tuple(b.source, b.relationship, b.target);
  });
  return facts;
}

Pattern MakePattern(int mask, Rng& rng, const Shape& s) {
  Pattern p;
  if (mask & 1) p.source = static_cast<EntityId>(rng.Uniform(s.sources));
  if (mask & 2) p.relationship = static_cast<EntityId>(rng.Uniform(s.rels));
  if (mask & 4) p.target = static_cast<EntityId>(rng.Uniform(s.targets));
  return p;
}

class FrozenIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrozenIndexPropertyTest, EquivalentToTripleIndex) {
  Rng rng(GetParam());
  const Shape shape{GetParam(),
                    50 + rng.Uniform(400),
                    static_cast<EntityId>(2 + rng.Uniform(20)),
                    static_cast<EntityId>(1 + rng.Uniform(8)),
                    static_cast<EntityId>(2 + rng.Uniform(20))};

  TripleIndex dynamic;
  for (const Fact& f : RandomFacts(rng, shape)) dynamic.Insert(f);
  const FrozenIndex frozen = FrozenIndex::FromTripleIndex(dynamic);
  ASSERT_EQ(frozen.size(), dynamic.size());

  // Contains agrees on present and absent facts.
  for (const Fact& f : frozen.Materialize()) {
    EXPECT_TRUE(dynamic.Contains(f));
    EXPECT_TRUE(frozen.Contains(f));
  }
  for (int i = 0; i < 50; ++i) {
    Fact probe(static_cast<EntityId>(rng.Uniform(shape.sources + 3)),
               static_cast<EntityId>(rng.Uniform(shape.rels + 3)),
               static_cast<EntityId>(rng.Uniform(shape.targets + 3)));
    EXPECT_EQ(frozen.Contains(probe), dynamic.Contains(probe));
  }

  for (int mask = 0; mask < 8; ++mask) {
    for (int trial = 0; trial < 10; ++trial) {
      const Pattern p = MakePattern(mask, rng, shape);
      const std::vector<Fact> want = Sorted(dynamic.Match(p));
      const std::vector<Fact> got = Sorted(frozen.Match(p));
      ASSERT_EQ(got, want) << "mask=" << mask;
      EXPECT_EQ(frozen.CountMatches(p), want.size()) << "mask=" << mask;

      if (p.BoundCount() != 2) continue;
      // SortedFreeValues: strictly ascending distinct values of the one
      // free position, agreeing between the two index kinds.
      std::vector<EntityId> frozen_scratch, dynamic_scratch;
      SortedIdSpan frozen_span, dynamic_span;
      ASSERT_TRUE(frozen.SortedFreeValues(p, &frozen_scratch, &frozen_span));
      ASSERT_TRUE(
          dynamic.SortedFreeValues(p, &dynamic_scratch, &dynamic_span));
      std::set<EntityId> expect;
      const int free_pos = !p.SourceBound() ? 0 : (!p.RelationshipBound() ? 1 : 2);
      for (const Fact& f : want) {
        expect.insert(free_pos == 0   ? f.source
                      : free_pos == 1 ? f.relationship
                                      : f.target);
      }
      ASSERT_EQ(frozen_span.size, expect.size()) << "mask=" << mask;
      ASSERT_EQ(dynamic_span.size, expect.size()) << "mask=" << mask;
      size_t i = 0;
      for (EntityId e : expect) {
        EXPECT_EQ(frozen_span.data[i], e);
        EXPECT_EQ(dynamic_span.data[i], e);
        ++i;
      }
    }
  }
}

// The arrays a comparison-sort build produces from SRT-sorted,
// duplicate-free facts: the reference the counting-pass kernel must
// reproduce exactly.
struct ReferenceLayout {
  std::vector<EntityId> rel, tgt;
  std::vector<uint32_t> src_offsets, rts_perm, rel_offsets, tsr_perm,
      tgt_offsets;
  size_t distinct_sources = 0, distinct_rels = 0, distinct_targets = 0;
};

// CSR table over ids [0, max id + 1] of `ids` listed in ascending order;
// {0} when there are none.
std::vector<uint32_t> ReferenceOffsets(const std::vector<EntityId>& ids) {
  if (ids.empty()) return {0};
  std::vector<uint32_t> offsets(size_t{ids.back()} + 2);
  for (size_t id = 0; id < offsets.size(); ++id) {
    offsets[id] = static_cast<uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  }
  return offsets;
}

size_t Distinct(std::vector<EntityId> ids) {
  std::sort(ids.begin(), ids.end());
  return static_cast<size_t>(std::unique(ids.begin(), ids.end()) -
                             ids.begin());
}

ReferenceLayout BuildReference(const std::vector<Fact>& facts) {
  ReferenceLayout ref;
  std::vector<EntityId> srcs;
  std::vector<EntityId> rels;
  std::vector<EntityId> tgts;
  for (const Fact& f : facts) {
    ref.rel.push_back(f.relationship);
    ref.tgt.push_back(f.target);
    srcs.push_back(f.source);
  }
  ref.src_offsets = ReferenceOffsets(srcs);
  auto sorted_perm = [&](const auto& less) {
    std::vector<uint32_t> perm(facts.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return less(facts[a], facts[b]);
    });
    return perm;
  };
  ref.rts_perm = sorted_perm(OrderRts());
  for (uint32_t row : ref.rts_perm) rels.push_back(facts[row].relationship);
  ref.rel_offsets = ReferenceOffsets(rels);
  ref.tsr_perm = sorted_perm(OrderTsr());
  for (uint32_t row : ref.tsr_perm) tgts.push_back(facts[row].target);
  ref.tgt_offsets = ReferenceOffsets(tgts);
  ref.distinct_sources = Distinct(srcs);
  ref.distinct_rels = Distinct(rels);
  ref.distinct_targets = Distinct(tgts);
  return ref;
}

// The arrays a FrozenIndex actually holds.
ReferenceLayout LayoutOf(const FrozenIndex& f) {
  return {Peer::Rel(f),        Peer::Tgt(f),        Peer::SrcOffsets(f),
          Peer::RtsPerm(f),    Peer::RelOffsets(f), Peer::TsrPerm(f),
          Peer::TgtOffsets(f), f.DistinctSources(), f.DistinctRelationships(),
          f.DistinctTargets()};
}

void ExpectLayout(const FrozenIndex& index, const ReferenceLayout& want) {
  const ReferenceLayout got = LayoutOf(index);
  EXPECT_EQ(got.rel, want.rel);
  EXPECT_EQ(got.tgt, want.tgt);
  EXPECT_EQ(got.src_offsets, want.src_offsets);
  EXPECT_EQ(got.rts_perm, want.rts_perm);
  EXPECT_EQ(got.rel_offsets, want.rel_offsets);
  EXPECT_EQ(got.tsr_perm, want.tsr_perm);
  EXPECT_EQ(got.tgt_offsets, want.tgt_offsets);
  EXPECT_EQ(got.distinct_sources, want.distinct_sources);
  EXPECT_EQ(got.distinct_rels, want.distinct_rels);
  EXPECT_EQ(got.distinct_targets, want.distinct_targets);
}

std::vector<Fact> SortedUnique(std::vector<Fact> facts) {
  std::sort(facts.begin(), facts.end(), OrderSrt());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  return facts;
}

TEST_P(FrozenIndexPropertyTest, BuildMatchesComparisonSortReference) {
  Rng rng(GetParam() * 40503u + 5);
  const Shape shape{GetParam(),
                    rng.Uniform(2000),
                    static_cast<EntityId>(1 + rng.Uniform(300)),
                    static_cast<EntityId>(1 + rng.Uniform(12)),
                    static_cast<EntityId>(1 + rng.Uniform(300))};
  const std::vector<Fact> facts = SortedUnique(RandomFacts(rng, shape));
  ExpectLayout(FrozenIndex::FromSortedRun(facts), BuildReference(facts));
  // The unsorted, duplicated input path lands on the same arrays.
  std::vector<Fact> shuffled = RandomFacts(rng, shape);
  shuffled.insert(shuffled.end(), shuffled.begin(), shuffled.end());
  ExpectLayout(FrozenIndex(shuffled),
               BuildReference(SortedUnique(shuffled)));
}

TEST(FrozenIndexBuildTest, EdgeShapesMatchComparisonSortReference) {
  Rng rng(7);
  std::vector<std::vector<Fact>> shapes;
  shapes.push_back({});                      // empty
  shapes.push_back({Fact(0, 0, 0)});         // single fact at id 0
  shapes.push_back({Fact(9, 4, 12)});        // single fact, high ids
  std::vector<Fact> one_rel;                 // one relationship
  for (int i = 0; i < 500; ++i) {
    one_rel.emplace_back(static_cast<EntityId>(rng.Uniform(60)), 3,
                         static_cast<EntityId>(rng.Uniform(60)));
  }
  shapes.push_back(one_rel);
  std::vector<Fact> sparse;                  // few facts, far-apart ids
  for (int i = 0; i < 200; ++i) {
    sparse.emplace_back(static_cast<EntityId>(rng.Uniform(200'000)),
                        static_cast<EntityId>(100'000 + rng.Uniform(4)),
                        static_cast<EntityId>(rng.Uniform(200'000)));
  }
  shapes.push_back(sparse);
  std::vector<Fact> hubs;                    // a few dense hub entities
  for (EntityId hub = 0; hub < 3; ++hub) {
    for (EntityId r = 0; r < 4; ++r) {
      for (EntityId t = 0; t < 300; ++t) {
        hubs.emplace_back(hub * 50, r, t);   // out-hub
        hubs.emplace_back(t + 1000, r, hub * 50);  // in-hub
      }
    }
  }
  shapes.push_back(hubs);
  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + std::to_string(i));
    const std::vector<Fact> facts = SortedUnique(shapes[i]);
    ExpectLayout(FrozenIndex::FromSortedRun(facts), BuildReference(facts));
  }
}

// The name predates DeltaIndex: the merge under test is now its
// geometric tail-merge, which folds two disjoint segments into one.
TEST_P(FrozenIndexPropertyTest, MergedEqualsFromScratchBuild) {
  Rng rng(GetParam() * 2654435761u + 17);
  const Shape shape{GetParam(),
                    1500 + rng.Uniform(1500),
                    static_cast<EntityId>(20 + rng.Uniform(40)),
                    static_cast<EntityId>(1 + rng.Uniform(6)),
                    static_cast<EntityId>(20 + rng.Uniform(40))};

  // Split a duplicate-free universe into an older run and a newer,
  // disjoint run at least half its size, both large enough to become
  // segments, so the second InsertRun tail-merges them.
  const std::vector<Fact> all = SortedUnique(RandomFacts(rng, shape));
  std::vector<Fact> base_facts, run;
  for (const Fact& f : all) {
    (rng.Uniform(5) < 3 ? base_facts : run).push_back(f);
  }
  ASSERT_GE(run.size(), DeltaIndex::kL0MinRun);
  ASSERT_GE(run.size() * 2, base_facts.size());

  DeltaIndex tiers;
  ASSERT_EQ(tiers.InsertRun(base_facts), base_facts.size());
  ASSERT_EQ(tiers.InsertRun(run), run.size());
  ASSERT_EQ(tiers.segment_count(), 1u);
  ASSERT_EQ(tiers.overlay_size(), 0u);
  const FrozenIndex& merged = *tiers.segments()[0];
  const FrozenIndex scratch(all);

  ASSERT_EQ(merged.size(), scratch.size());
  ExpectLayout(merged, LayoutOf(scratch));
  ExpectLayout(merged, BuildReference(all));

  for (int mask = 0; mask < 8; ++mask) {
    for (int trial = 0; trial < 6; ++trial) {
      const Pattern p = MakePattern(mask, rng, shape);
      EXPECT_EQ(Sorted(merged.Match(p)), Sorted(scratch.Match(p)))
          << "mask=" << mask;
      EXPECT_EQ(merged.CountMatches(p), scratch.CountMatches(p));
    }
  }

  // AppendMissing against the merged index filters exactly the union.
  std::vector<Fact> missing;
  merged.AppendMissing(all, &missing);
  EXPECT_TRUE(missing.empty());
  std::vector<Fact> fresh;
  FrozenIndex(base_facts).AppendMissing(all, &fresh);
  EXPECT_EQ(fresh, run);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

// The columnar layout must beat the old three-sorted-arrays layout
// (3 Fact copies = 36 bytes/fact) by at least 2x at the E9 storage
// benchmark's shape: 100k facts over 10k entities.
TEST(FrozenIndexMemoryTest, HalvesTripleArrayFootprintAtE9Scale) {
  Rng rng(42);
  std::vector<Fact> facts;
  facts.reserve(100'000);
  for (int i = 0; i < 100'000; ++i) {
    facts.emplace_back(static_cast<EntityId>(rng.Uniform(10'000)),
                       static_cast<EntityId>(rng.Uniform(8)),
                       static_cast<EntityId>(rng.Uniform(10'000)));
  }
  const FrozenIndex frozen(facts);
  const FrozenIndex::Memory mem = frozen.MemoryUsage();
  EXPECT_GT(mem.run_bytes, 0u);
  EXPECT_GT(mem.perm_bytes, 0u);
  EXPECT_GT(mem.offset_bytes, 0u);
  const size_t old_layout = 3 * sizeof(Fact) * frozen.size();
  EXPECT_LE(2 * mem.total(), old_layout)
      << "columnar tier uses " << mem.total() << " bytes vs " << old_layout
      << " for three sorted Fact arrays";
}

}  // namespace
}  // namespace lsd
