#include "store/delta_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "store/triple_index.h"
#include "util/random.h"

namespace lsd {
namespace {

Fact RandomFact(Rng& rng) {
  return Fact(static_cast<EntityId>(rng.Uniform(12)),
              static_cast<EntityId>(rng.Uniform(5)),
              static_cast<EntityId>(rng.Uniform(12)));
}

TEST(DeltaIndexTest, InsertDeduplicatesAcrossTiers) {
  DeltaIndex idx(FrozenIndex({Fact(1, 2, 3)}));
  EXPECT_FALSE(idx.Insert(Fact(1, 2, 3)));  // already frozen
  EXPECT_TRUE(idx.Insert(Fact(4, 5, 6)));   // new, goes to overlay
  EXPECT_FALSE(idx.Insert(Fact(4, 5, 6)));  // already in overlay
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.frozen_size(), 1u);
  EXPECT_EQ(idx.overlay_size(), 1u);
  EXPECT_TRUE(idx.Contains(Fact(1, 2, 3)));
  EXPECT_TRUE(idx.Contains(Fact(4, 5, 6)));
  EXPECT_FALSE(idx.Contains(Fact(1, 2, 4)));
}

TEST(DeltaIndexTest, CompactPreservesContents) {
  Rng rng(3);
  DeltaIndex idx;
  TripleIndex reference;
  for (int i = 0; i < 300; ++i) {
    Fact f = RandomFact(rng);
    EXPECT_EQ(idx.Insert(f), reference.Insert(f));
    if (i == 150) idx.Compact();
  }
  idx.Compact();
  EXPECT_EQ(idx.overlay_size(), 0u);
  EXPECT_EQ(idx.size(), reference.size());
  reference.ForEach(Pattern(), [&](const Fact& f) {
    EXPECT_TRUE(idx.Contains(f));
    return true;
  });
}

TEST(DeltaIndexTest, InsertRunSmallGoesToOverlayLargeToSegment) {
  DeltaIndex idx;
  // Small run: below kL0MinRun, lands in the overlay.
  std::vector<Fact> small = {Fact(1, 1, 1), Fact(2, 2, 2)};
  EXPECT_EQ(idx.InsertRun(small), 2u);
  EXPECT_EQ(idx.overlay_size(), 2u);
  EXPECT_EQ(idx.segment_count(), 0u);

  // Large run: becomes an L0 frozen segment. The overlay is NOT folded
  // in — that is the background compactor's job, not the insert path's.
  std::vector<Fact> large;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun + 10; ++i) {
    large.push_back(Fact(i + 10, 0, 0));
  }
  std::sort(large.begin(), large.end(), OrderSrt());
  EXPECT_EQ(idx.InsertRun(large), large.size());
  EXPECT_EQ(idx.overlay_size(), 2u);
  EXPECT_EQ(idx.segment_count(), 1u);
  EXPECT_EQ(idx.size(), 2u + large.size());
  EXPECT_TRUE(idx.Contains(Fact(1, 1, 1)));
  EXPECT_TRUE(idx.Contains(large.front()));
  EXPECT_TRUE(idx.Contains(large.back()));

  // Re-inserting the same run adds nothing.
  EXPECT_EQ(idx.InsertRun(large), 0u);
  EXPECT_EQ(idx.size(), 2u + large.size());
}

TEST(DeltaIndexTest, InsertRunKeepsSegmentSizesGeometric) {
  // Equal-sized runs trip the tail-merge every time (the newest segment
  // is at least half the previous), so the list stays logarithmic in
  // the total size instead of growing one segment per run.
  DeltaIndex idx;
  const size_t n = DeltaIndex::kL0MinRun;
  for (int round = 0; round < 16; ++round) {
    std::vector<Fact> run;
    for (size_t i = 0; i < n; ++i) {
      run.push_back(Fact(static_cast<EntityId>(round * n + i), 1, 2));
    }
    EXPECT_EQ(idx.InsertRun(run), n);
  }
  EXPECT_EQ(idx.size(), 16 * n);
  EXPECT_LE(idx.segment_count(), 5u);  // ~log2(16) + slack, not 16
  // Oldest-to-newest the segments must shrink by at least 2x.
  const auto& segs = idx.segments();
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_GT(segs[i]->size(), 2 * segs[i + 1]->size() - 2);
  }
}

// ISSUE 10 satellite 1: inserting a modest run next to a large frozen
// generation must not rebuild the large generation (the old
// "overlay >= frozen/4 => fold everything" stall). The big segment must
// survive by pointer identity and the insert only appends after it.
TEST(DeltaIndexTest, InsertRunNeverRebuildsLargeOldGenerations) {
  std::vector<Fact> big;
  for (EntityId i = 0; i < 20'000; ++i) big.push_back(Fact(i, 1, 2));
  DeltaIndex idx(FrozenIndex(std::move(big)));
  ASSERT_EQ(idx.segment_count(), 1u);
  const FrozenIndex* big_segment = idx.segments()[0].get();

  // A run a quarter the frozen size — exactly the shape that used to
  // trigger the monolithic rebuild.
  std::vector<Fact> run;
  for (EntityId i = 0; i < 5'000; ++i) run.push_back(Fact(i, 3, 4));
  EXPECT_EQ(idx.InsertRun(run), run.size());

  ASSERT_GE(idx.segment_count(), 2u);
  EXPECT_EQ(idx.segments()[0].get(), big_segment)
      << "the old generation was rebuilt on the insert path";
  EXPECT_EQ(idx.size(), 25'000u);
}

TEST(DeltaIndexTest, CloneSharesSegmentsAndForksOverlay) {
  DeltaIndex idx;
  std::vector<Fact> run;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    run.push_back(Fact(i, 1, 2));
  }
  idx.InsertRun(run);
  idx.Insert(Fact(9000, 1, 2));
  DeltaIndex copy = idx.Clone();
  ASSERT_EQ(copy.segment_count(), idx.segment_count());
  EXPECT_EQ(copy.segments()[0].get(), idx.segments()[0].get());  // shared
  // Overlays are independent.
  EXPECT_TRUE(copy.Insert(Fact(9001, 1, 2)));
  EXPECT_FALSE(idx.Contains(Fact(9001, 1, 2)));
  EXPECT_TRUE(copy.Contains(Fact(9000, 1, 2)));
  EXPECT_EQ(idx.size() + 1, copy.size());
}

TEST(DeltaIndexTest, SwapMergedPrefixInstallsAndDetectsStaleness) {
  DeltaIndex idx;
  // 4x the later run so the post-pin InsertRun below stays its own
  // segment instead of tail-merging into (and so invalidating) the
  // pinned one.
  std::vector<Fact> run;
  for (EntityId i = 0; i < 4 * DeltaIndex::kL0MinRun; ++i) {
    run.push_back(Fact(i, 1, 2));
  }
  idx.InsertRun(run);
  idx.Insert(Fact(9000, 1, 2));  // overlay fact, pinned
  // Pin the tiers (what the compactor does off-thread)...
  auto pinned = idx.segments();
  auto merged = std::make_shared<const FrozenIndex>(idx.BuildMerged());
  // ...then mutate past the pin: these must survive the swap.
  idx.Insert(Fact(9001, 1, 2));
  std::vector<Fact> late;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    late.push_back(Fact(20'000 + i, 1, 2));
  }
  std::sort(late.begin(), late.end(), OrderSrt());
  idx.InsertRun(late);

  const size_t before = idx.size();
  ASSERT_TRUE(idx.SwapMergedPrefix(pinned, merged));
  EXPECT_EQ(idx.size(), before);  // nothing lost, nothing duplicated
  EXPECT_TRUE(idx.Contains(Fact(0, 1, 2)));
  EXPECT_TRUE(idx.Contains(Fact(9000, 1, 2)));  // folded into `merged`
  EXPECT_TRUE(idx.Contains(Fact(9001, 1, 2)));  // post-pin overlay fact
  EXPECT_TRUE(idx.Contains(late.front()));      // post-pin segment
  EXPECT_EQ(idx.segments()[0].get(), merged.get());
  // The pinned overlay fact moved into the merged generation.
  EXPECT_EQ(idx.overlay_size(), 1u);

  // A second swap against the consumed prefix is stale: the index must
  // refuse and stay untouched.
  const size_t segments_now = idx.segment_count();
  EXPECT_FALSE(idx.SwapMergedPrefix(pinned, merged));
  EXPECT_EQ(idx.segment_count(), segments_now);
  EXPECT_EQ(idx.size(), before);
}

TEST(DeltaIndexTest, ForEachStopsEarlyAcrossTiers) {
  DeltaIndex idx(FrozenIndex({Fact(1, 2, 3), Fact(4, 5, 6)}));
  idx.Insert(Fact(7, 8, 9));
  int seen = 0;
  bool complete = idx.ForEach(Pattern(), [&](const Fact&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 2);
}

// The two-tier index must answer all 8 binding patterns exactly like a
// plain TripleIndex holding the same facts, with the facts split across
// tiers at an arbitrary point — and CountMatches must equal the match
// count (it feeds the kEstimatedCost join order).
class DeltaIndexPatternTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaIndexPatternTest, AgreesWithTripleIndex) {
  const int mask = GetParam();
  Rng rng(19);
  TripleIndex reference;
  std::vector<Fact> all;
  for (int i = 0; i < 400; ++i) {
    Fact f = RandomFact(rng);
    if (reference.Insert(f)) all.push_back(f);
  }
  // First half frozen, second half overlaid, a fact duplicated in both
  // insert streams to exercise dedup.
  const size_t half = all.size() / 2;
  DeltaIndex idx(FrozenIndex(
      std::vector<Fact>(all.begin(), all.begin() + half)));
  for (size_t i = half; i < all.size(); ++i) idx.Insert(all[i]);
  idx.Insert(all.front());
  ASSERT_EQ(idx.size(), reference.size());

  auto by_key = [](const Fact& a, const Fact& b) {
    return OrderSrt()(a, b);
  };
  for (int trial = 0; trial < 40; ++trial) {
    Pattern p;
    if (mask & 1) p.source = static_cast<EntityId>(rng.Uniform(12));
    if (mask & 2) p.relationship = static_cast<EntityId>(rng.Uniform(5));
    if (mask & 4) p.target = static_cast<EntityId>(rng.Uniform(12));
    std::vector<Fact> want = reference.Match(p);
    std::vector<Fact> got = idx.Match(p);
    std::sort(want.begin(), want.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, want) << "mask=" << mask;
    EXPECT_EQ(idx.CountMatches(p), want.size()) << "mask=" << mask;
    EXPECT_EQ(idx.EstimateMatches(p), want.size()) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, DeltaIndexPatternTest,
                         ::testing::Range(0, 8));

TEST(DeltaIndexTest, EraseRebuildsSegmentCopyOnWrite) {
  DeltaIndex idx;
  std::vector<Fact> run;
  for (EntityId i = 0; i < 2 * DeltaIndex::kL0MinRun; ++i) {
    run.push_back(Fact(i, 1, 2));
  }
  idx.InsertRun(run);
  idx.Insert(Fact(9000, 1, 2));
  ASSERT_EQ(idx.segment_count(), 1u);
  DeltaIndex pinned = idx.Clone();  // an older epoch's view
  const FrozenIndex* shared = idx.segments()[0].get();
  const uint64_t history = idx.history();

  // A segment fact: the erasing index gets a new segment; the clone
  // keeps reading the old one, untouched.
  EXPECT_TRUE(idx.Erase(Fact(7, 1, 2)));
  EXPECT_FALSE(idx.Contains(Fact(7, 1, 2)));
  EXPECT_NE(idx.segments()[0].get(), shared);
  EXPECT_EQ(pinned.segments()[0].get(), shared);
  EXPECT_TRUE(pinned.Contains(Fact(7, 1, 2)));
  EXPECT_EQ(idx.size() + 1, pinned.size());
  EXPECT_EQ(idx.frozen_size() + 1, pinned.frozen_size());
  EXPECT_NE(idx.history(), history);
  EXPECT_EQ(pinned.history(), history);

  // An overlay fact, then an absent one.
  EXPECT_TRUE(idx.Erase(Fact(9000, 1, 2)));
  EXPECT_FALSE(idx.Contains(Fact(9000, 1, 2)));
  EXPECT_TRUE(pinned.Contains(Fact(9000, 1, 2)));
  EXPECT_EQ(idx.overlay_size(), 0u);
  const uint64_t after = idx.history();
  EXPECT_FALSE(idx.Erase(Fact(7, 1, 2)));
  EXPECT_EQ(idx.history(), after);  // no change, same history

  // Erasing every fact of a segment drops the segment.
  DeltaIndex small;
  std::vector<Fact> tiny;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    tiny.push_back(Fact(i, 3, 4));
  }
  small.InsertRun(tiny);
  ASSERT_EQ(small.segment_count(), 1u);
  for (const Fact& f : tiny) ASSERT_TRUE(small.Erase(f));
  EXPECT_EQ(small.segment_count(), 0u);
  EXPECT_TRUE(small.empty());
}

TEST(DeltaIndexTest, EraseMatchesReferenceUnderRandomChurn) {
  Rng rng(31);
  DeltaIndex idx;
  TripleIndex reference;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t pick = rng.Uniform(10);
    if (pick < 5) {
      Fact f = RandomFact(rng);
      EXPECT_EQ(idx.Insert(f), reference.Insert(f));
    } else if (pick < 8) {
      Fact f = RandomFact(rng);
      EXPECT_EQ(idx.Erase(f), reference.Erase(f));
    } else {
      std::vector<Fact> run;
      for (int i = 0; i < 300; ++i) {
        run.push_back(Fact(static_cast<EntityId>(rng.Uniform(40)),
                           static_cast<EntityId>(rng.Uniform(5)),
                           static_cast<EntityId>(rng.Uniform(40))));
      }
      std::sort(run.begin(), run.end(), OrderSrt());
      run.erase(std::unique(run.begin(), run.end()), run.end());
      size_t fresh = 0;
      for (const Fact& f : run) fresh += reference.Insert(f) ? 1 : 0;
      EXPECT_EQ(idx.InsertRun(run), fresh);
    }
    ASSERT_EQ(idx.size(), reference.size()) << "step " << step;
  }
  EXPECT_EQ(idx.Materialize(), reference.Match(Pattern()));
}

// A retract run rebuilds each segment it touches exactly once, shares
// the untouched ones, and never disturbs a clone that pinned the old
// segment list.
TEST(DeltaIndexTest, EraseRunRebuildsEachTouchedSegmentOnce) {
  DeltaIndex idx;
  std::vector<Fact> older;
  for (EntityId i = 0; i < 4 * DeltaIndex::kL0MinRun; ++i) {
    older.push_back(Fact(i, 1, 2));
  }
  std::vector<Fact> newer;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    newer.push_back(Fact(i, 5, 6));
  }
  idx.InsertRun(older);
  idx.InsertRun(newer);
  idx.Insert(Fact(9000, 1, 2));
  ASSERT_EQ(idx.segment_count(), 2u);
  DeltaIndex pinned = idx.Clone();
  const FrozenIndex* first = idx.segments()[0].get();
  const FrozenIndex* second = idx.segments()[1].get();
  const uint64_t history = idx.history();

  // Three facts of the older segment, the overlay fact and an absent
  // fact: one rebuild of the older segment, the newer one still shared.
  std::vector<Fact> run = {Fact(3, 1, 2), Fact(10, 1, 2), Fact(700, 1, 2),
                           Fact(9000, 1, 2), Fact(4, 4, 4)};
  std::sort(run.begin(), run.end(), OrderSrt());
  std::vector<Fact> erased;
  EXPECT_EQ(idx.EraseRun(run, &erased), 4u);
  EXPECT_EQ(erased, (std::vector<Fact>{Fact(3, 1, 2), Fact(10, 1, 2),
                                       Fact(700, 1, 2), Fact(9000, 1, 2)}));
  ASSERT_EQ(idx.segment_count(), 2u);
  EXPECT_NE(idx.segments()[0].get(), first);
  EXPECT_EQ(idx.segments()[1].get(), second);
  EXPECT_EQ(idx.size(), older.size() + newer.size() - 3);
  EXPECT_EQ(idx.frozen_size(), older.size() + newer.size() - 3);
  EXPECT_EQ(idx.overlay_size(), 0u);
  for (const Fact& f : erased) {
    EXPECT_FALSE(idx.Contains(f));
    EXPECT_TRUE(pinned.Contains(f));
  }
  EXPECT_EQ(pinned.segments()[0].get(), first);
  EXPECT_NE(idx.history(), history);
  EXPECT_EQ(pinned.history(), history);

  // Nothing present: no rebuild, same history.
  const uint64_t after = idx.history();
  const FrozenIndex* rebuilt = idx.segments()[0].get();
  EXPECT_EQ(idx.EraseRun(run), 0u);
  EXPECT_EQ(idx.segments()[0].get(), rebuilt);
  EXPECT_EQ(idx.history(), after);

  // A run covering a whole segment drops it.
  EXPECT_EQ(idx.EraseRun(newer), newer.size());
  EXPECT_EQ(idx.segment_count(), 1u);
  std::vector<Fact> left;
  for (const Fact& f : older) {
    if (!std::binary_search(erased.begin(), erased.end(), f, OrderSrt())) {
      left.push_back(f);
    }
  }
  std::sort(left.begin(), left.end(), OrderSrt());
  EXPECT_EQ(idx.Materialize(), left);
}

TEST(DeltaIndexTest, EraseRunMatchesReferenceUnderRandomChurn) {
  Rng rng(53);
  DeltaIndex idx;
  TripleIndex reference;
  auto random_run = [&rng](size_t n) {
    std::vector<Fact> run;
    for (size_t i = 0; i < n; ++i) {
      run.push_back(Fact(static_cast<EntityId>(rng.Uniform(40)),
                         static_cast<EntityId>(rng.Uniform(5)),
                         static_cast<EntityId>(rng.Uniform(40))));
    }
    std::sort(run.begin(), run.end(), OrderSrt());
    run.erase(std::unique(run.begin(), run.end()), run.end());
    return run;
  };
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.5)) {
      const std::vector<Fact> run = random_run(1 + rng.Uniform(600));
      size_t fresh = 0;
      for (const Fact& f : run) fresh += reference.Insert(f) ? 1 : 0;
      EXPECT_EQ(idx.InsertRun(run), fresh);
    } else {
      const std::vector<Fact> run = random_run(1 + rng.Uniform(200));
      std::vector<Fact> expect;
      for (const Fact& f : run) {
        if (reference.Erase(f)) expect.push_back(f);
      }
      std::vector<Fact> erased;
      EXPECT_EQ(idx.EraseRun(run, &erased), expect.size());
      EXPECT_EQ(erased, expect);
    }
    ASSERT_EQ(idx.size(), reference.size()) << "step " << step;
  }
  EXPECT_EQ(idx.Materialize(), reference.Match(Pattern()));
}

}  // namespace
}  // namespace lsd
