#include "store/fact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "core/loose_db.h"
#include "server/shared_store.h"
#include "store/text_format.h"
#include "util/random.h"

namespace lsd {
namespace {

TEST(FactStoreTest, AssertByNamesInterns) {
  FactStore store;
  Fact f = store.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  EXPECT_TRUE(store.Contains(f));
  EXPECT_EQ(store.entities().Name(f.source), "JOHN");
  EXPECT_EQ(store.entities().Name(f.relationship), "WORKS-FOR");
  EXPECT_EQ(store.entities().Name(f.target), "SHIPPING");
  EXPECT_EQ(store.size(), 1u);
}

TEST(FactStoreTest, VersionBumpsOnMutation) {
  FactStore store;
  uint64_t v0 = store.version();
  Fact f = store.Assert("A", "R", "B");
  EXPECT_GT(store.version(), v0);
  uint64_t v1 = store.version();
  store.Assert(f);  // duplicate: no change
  EXPECT_EQ(store.version(), v1);
  store.Retract(f);
  EXPECT_GT(store.version(), v1);
}

TEST(FactStoreTest, RelationshipClasses) {
  FactStore store;
  EntityId earns = store.entities().Intern("EARNS");
  EXPECT_FALSE(store.IsClassRelationship(earns));  // default individual
  store.MarkClassRelationship(earns);
  EXPECT_TRUE(store.IsClassRelationship(earns));
  // Built-in classifications (Sec 2.2-2.3).
  EXPECT_TRUE(store.IsClassRelationship(kEntIn));
  EXPECT_TRUE(store.IsClassRelationship(kEntSyn));
  EXPECT_TRUE(store.IsClassRelationship(kEntInv));
  EXPECT_TRUE(store.IsClassRelationship(kEntContra));
  EXPECT_FALSE(store.IsClassRelationship(kEntIsa));
}

TEST(FactStoreTest, BaseSourceStreamsAssertedFacts) {
  FactStore store;
  store.Assert("A", "R", "B");
  store.Assert("A", "R", "C");
  EXPECT_EQ(store.base().Match(Pattern()).size(), 2u);
  EXPECT_EQ(store.base().EstimateMatches(Pattern()), 2u);
  EXPECT_TRUE(store.base().Enumerable(Pattern()));
}

TEST(UnionSourceTest, DeduplicatesOverlappingLayers) {
  TripleIndex a, b;
  a.Insert(Fact(1, 2, 3));
  a.Insert(Fact(1, 2, 4));
  b.Insert(Fact(1, 2, 3));  // overlaps a
  b.Insert(Fact(1, 2, 5));
  IndexSource sa(&a), sb(&b);
  UnionSource u({&sa, &sb});
  EXPECT_EQ(u.Match(Pattern()).size(), 3u);
  EXPECT_TRUE(u.Contains(Fact(1, 2, 5)));
  EXPECT_FALSE(u.Contains(Fact(9, 9, 9)));
}

TEST(UnionSourceTest, EarlyStopPropagates) {
  TripleIndex a;
  for (EntityId i = 0; i < 10; ++i) a.Insert(Fact(1, 2, i));
  IndexSource sa(&a);
  UnionSource u({&sa});
  int seen = 0;
  bool completed = u.ForEach(Pattern(), [&](const Fact&) {
    return ++seen < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2);
}

// ---- The asserted facts as one shared generational index ---------------

// `n` distinct facts over a few hundred entities, interned into `store`.
std::vector<Fact> BulkFacts(EntityTable* entities, size_t n,
                            uint64_t seed = 1) {
  Rng rng(seed);
  std::set<Fact, OrderSrt> unique;
  const size_t num_entities = std::max<size_t>(64, n / 8);
  std::vector<EntityId> ids;
  for (size_t i = 0; i < num_entities; ++i) {
    ids.push_back(entities->Intern("N" + std::to_string(i)));
  }
  std::vector<EntityId> rels;
  for (int i = 0; i < 12; ++i) {
    rels.push_back(entities->Intern("REL" + std::to_string(i)));
  }
  while (unique.size() < n) {
    unique.insert(Fact(ids[rng.Uniform(ids.size())],
                       rels[rng.Uniform(rels.size())],
                       ids[rng.Uniform(ids.size())]));
  }
  return std::vector<Fact>(unique.begin(), unique.end());
}

TEST(FactStoreTest, AssertRunMatchesFactAtATimeAsserts) {
  FactStore bulk;
  FactStore single;
  std::vector<Fact> facts = BulkFacts(&bulk.entities(), 2000);
  (void)BulkFacts(&single.entities(), 2000);  // same ids in both tables
  std::vector<Fact> doubled = facts;
  doubled.insert(doubled.end(), facts.begin(), facts.begin() + 100);
  std::vector<Fact> added;
  EXPECT_EQ(bulk.AssertRun(doubled, &added), facts.size());
  EXPECT_EQ(added, facts);  // SRT order, duplicates collapsed
  for (const Fact& f : facts) single.Assert(f);
  EXPECT_EQ(bulk.size(), single.size());
  EXPECT_EQ(bulk.version(), single.version());
  EXPECT_EQ(bulk.base().Materialize(), single.base().Materialize());
  // A big run is a frozen segment; nothing lands in the overlay.
  EXPECT_GE(bulk.base().segment_count(), 1u);
  EXPECT_EQ(bulk.base().overlay_size(), 0u);
  // Re-asserting the run adds nothing and leaves the version alone.
  const uint64_t v = bulk.version();
  EXPECT_EQ(bulk.AssertRun(facts), 0u);
  EXPECT_EQ(bulk.version(), v);
}

TEST(FactStoreTest, RetractRunMatchesFactAtATimeRetracts) {
  FactStore bulk;
  FactStore single;
  const std::vector<Fact> facts = BulkFacts(&bulk.entities(), 3000);
  (void)BulkFacts(&single.entities(), 3000);
  bulk.AssertRun(facts);
  single.AssertRun(facts);
  bulk.Assert(Fact(1, 1, 1));  // an overlay fact
  single.Assert(Fact(1, 1, 1));
  // Every third fact, twice, plus the overlay fact and an absent one.
  std::vector<Fact> victims;
  for (size_t i = 0; i < facts.size(); i += 3) victims.push_back(facts[i]);
  victims.insert(victims.end(), victims.begin(), victims.begin() + 50);
  victims.push_back(Fact(1, 1, 1));
  victims.push_back(Fact(2, 2, 2));
  std::vector<Fact> removed;
  const size_t n = bulk.RetractRun(victims, &removed);
  size_t expect = 0;
  for (const Fact& f : victims) expect += single.Retract(f) ? 1 : 0;
  EXPECT_EQ(n, expect);
  EXPECT_EQ(n, facts.size() / 3 + 1);
  EXPECT_TRUE(std::is_sorted(removed.begin(), removed.end(), OrderSrt()));
  EXPECT_EQ(removed.size(), n);
  EXPECT_EQ(bulk.version(), single.version());
  EXPECT_EQ(bulk.base().Materialize(), single.base().Materialize());
}

TEST(FactStoreTest, FactLoaderKeepsSequentialMeaning) {
  FactStore store;
  const Fact a(store.entities().Intern("A"), store.entities().Intern("R"),
               store.entities().Intern("B"));
  const Fact c(a.source, a.relationship, store.entities().Intern("C"));
  {
    FactLoader loader(&store);
    loader.Assert(a);
    loader.Assert(c);
    loader.Retract(a);  // flushes the asserts first
    loader.Retract(a);  // same run: already gone
    loader.Assert(a);   // flushes the retracts first
    loader.Retract(c);
    loader.Flush();
    EXPECT_EQ(loader.added(), 3u);
    EXPECT_EQ(loader.removed(), 2u);
    loader.Assert(c);
  }  // destruction flushes the trailing assert
  EXPECT_TRUE(store.Contains(a));
  EXPECT_TRUE(store.Contains(c));
  EXPECT_EQ(store.size(), 2u);
}

// Pointer-identity regression: cloning a store (directly, through
// LooseDb::CloneInto, or through a SharedStore commit) shares every
// asserted segment with the source instead of copying the facts.
TEST(FactStoreSharingTest, CloneAndCommitShareAssertedSegments) {
  FactStore store;
  ASSERT_GT(store.AssertRun(BulkFacts(&store.entities(), 5000)), 0u);
  store.Assert("LONE", "R", "FACT");  // an overlay fact
  ASSERT_GE(store.base().segment_count(), 1u);

  FactStore copy;
  ASSERT_TRUE(store.CloneInto(&copy).ok());
  ASSERT_EQ(copy.base().segment_count(), store.base().segment_count());
  for (size_t i = 0; i < store.base().segment_count(); ++i) {
    EXPECT_EQ(copy.base().segments()[i].get(),
              store.base().segments()[i].get());
  }
  EXPECT_EQ(copy.base().overlay_size(), store.base().overlay_size());
  EXPECT_EQ(copy.version(), store.version());
  EXPECT_EQ(copy.base().Materialize(), store.base().Materialize());

  LooseDb db;
  ASSERT_GT(db.AssertRun(BulkFacts(&db.entities(), 5000)), 0u);
  ASSERT_TRUE(db.View().ok());
  LooseDbOptions clean;
  clean.standard_rules = false;
  LooseDb clone(clean);
  ASSERT_TRUE(db.CloneInto(&clone).ok());
  ASSERT_EQ(clone.store().base().segments(), db.store().base().segments());

  SharedStore shared;
  auto seeded = shared.Commit([](LooseDb& d) {
    d.AssertRun(BulkFacts(&d.entities(), 5000));
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok());
  EpochPtr before = shared.snapshot();
  auto next = shared.Commit([](LooseDb& d) {
    d.Assert("ONE", "MORE", "FACT");
    return Status::OK();
  });
  ASSERT_TRUE(next.ok());
  EpochPtr after = shared.snapshot();
  ASSERT_NE(before.get(), after.get());
  const auto& old_segs = before->db().store().base().segments();
  const auto& new_segs = after->db().store().base().segments();
  ASSERT_FALSE(old_segs.empty());
  ASSERT_EQ(new_segs.size(), old_segs.size());
  for (size_t i = 0; i < old_segs.size(); ++i) {
    EXPECT_EQ(new_segs[i].get(), old_segs[i].get());
  }
}

// A retract committed after an epoch is pinned rebuilds the segment
// holding the fact copy-on-write: the pinned epoch keeps its segment and
// every read on it answers byte for byte as before.
TEST(FactStoreSharingTest, RetractAfterPinLeavesPinnedReadsIdentical) {
  SharedStore shared;
  auto seeded = shared.Commit([](LooseDb& d) {
    d.AssertRun(BulkFacts(&d.entities(), 3000));
    d.Assert("HUB", "LINKS", "N1");
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok());
  EpochPtr pinned = shared.snapshot();
  const LooseDb& db = pinned->db();
  const Fact victim = db.store().base().segments().front()->Materialize()[7];
  const std::string victim_name =
      db.entities().Name(victim.source);
  auto reads = [&](const LooseDb& d) {
    std::string out = SerializeFacts(d.store());
    auto hood = d.Navigate(victim_name);
    EXPECT_TRUE(hood.ok());
    if (hood.ok()) out += hood->Render(d.entities());
    auto near = d.Nearby(victim_name, 2);
    EXPECT_TRUE(near.ok());
    if (near.ok()) {
      for (const NearbyEntity& n : *near) {
        out += std::to_string(n.distance) + d.entities().Name(n.entity);
      }
    }
    return out;
  };
  const std::string before = reads(db);
  const auto segments = db.store().base().segments();

  auto retracted = shared.Commit([&](LooseDb& d) {
    return d.Retract(victim) ? Status::OK()
                             : Status::NotFound("victim not asserted");
  });
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EpochPtr tip = shared.snapshot();
  EXPECT_FALSE(tip->db().store().Contains(victim));
  EXPECT_TRUE(db.store().Contains(victim));
  EXPECT_EQ(db.store().base().segments(), segments);
  EXPECT_EQ(reads(db), before);
  EXPECT_NE(reads(tip->db()), before);
  EXPECT_EQ(tip->db().store().size(), db.store().size() - 1);
}

// The asserted tier's columnar segments against the node-based layout
// they replaced, on the same facts.
TEST(FactStoreSharingTest, AssertedTierIsAQuarterOfTheTreeBytes) {
  FactStore store;
  const std::vector<Fact> facts = BulkFacts(&store.entities(), 120000);
  store.AssertRun(facts);
  TripleIndex trees;
  for (const Fact& f : facts) trees.Insert(f);
  ASSERT_EQ(store.size(), trees.size());
  const double store_per_fact =
      static_cast<double>(store.base().MemoryUsage().total()) /
      static_cast<double>(store.size());
  const double tree_per_fact = static_cast<double>(trees.MemoryUsage()) /
                               static_cast<double>(trees.size());
  EXPECT_LE(store_per_fact * 4, tree_per_fact)
      << store_per_fact << " vs " << tree_per_fact << " bytes per fact";
}

// Snapshot + WAL recovery across a checkpoint, with asserts (single and
// bulk) and retracts interleaved on both sides of it, against a std::set
// reference model of the named facts.
TEST(FactStoreSharingTest, RecoveryAcrossCheckpointMatchesReferenceModel) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "lsd_fact_store_recovery")
          .string();
  auto cleanup = [&] {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path(), ec)) {
      if (e.path().filename().string().rfind("lsd_fact_store_recovery", 0) ==
          0) {
        std::filesystem::remove(e.path(), ec);
      }
    }
  };
  cleanup();
  using Named = std::tuple<std::string, std::string, std::string>;
  std::set<Named> model;
  Rng rng(42);
  auto name = [&](const char* p, uint64_t bound) {
    return std::string(p) + std::to_string(rng.Uniform(bound));
  };
  {
    LooseDbOptions options;
    options.standard_rules = false;
    LooseDb db(options);
    ASSERT_TRUE(db.Open(prefix).ok());
    for (int round = 0; round < 6; ++round) {
      if (round == 3) {
        ASSERT_TRUE(db.Checkpoint().ok());
      }
      // A bulk run (some facts repeat earlier ones).
      std::vector<Fact> run;
      for (int i = 0; i < 400; ++i) {
        Named n{name("S", 60), name("R", 5), name("T", 60)};
        run.emplace_back(db.entities().Intern(std::get<0>(n)),
                         db.entities().Intern(std::get<1>(n)),
                         db.entities().Intern(std::get<2>(n)));
        model.insert(n);
      }
      db.AssertRun(run);
      // Single asserts and retracts, interleaved; retracts target both
      // frozen-segment and overlay facts.
      for (int i = 0; i < 60; ++i) {
        if (rng.Bernoulli(0.5) && !model.empty()) {
          auto it = model.begin();
          std::advance(it, rng.Uniform(model.size()));
          const Named victim = *it;
          ASSERT_TRUE(db.Retract(std::get<0>(victim), std::get<1>(victim),
                                 std::get<2>(victim))
                          .ok());
          model.erase(victim);
        } else {
          Named n{name("S", 60), name("R", 5), name("T", 60)};
          db.Assert(std::get<0>(n), std::get<1>(n), std::get<2>(n));
          model.insert(n);
        }
      }
    }
    ASSERT_TRUE(db.wal_status().ok());
  }
  LooseDbOptions options;
  options.standard_rules = false;
  LooseDb recovered(options);
  ASSERT_TRUE(recovered.Open(prefix).ok());
  EXPECT_TRUE(recovered.last_recovery().snapshot_loaded);
  EXPECT_GT(recovered.last_recovery().records_replayed, 0u);
  std::set<Named> got;
  const EntityTable& e = recovered.entities();
  recovered.store().base().ForEach(Pattern(), [&](const Fact& f) {
    got.emplace(e.Name(f.source), e.Name(f.relationship), e.Name(f.target));
    return true;
  });
  EXPECT_EQ(got, model);
  EXPECT_EQ(recovered.store().size(), model.size());
  cleanup();
}

// WAL replay after a checkpoint, where the snapshot's facts form one
// large segment and the log holds thousands of retracts (single records
// and one bulk run) mixed with asserts: replay batches them into runs,
// and the recovered facts match a std::set reference model.
TEST(FactStoreSharingTest, ReplayOfManyRetractsAfterCheckpoint) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "lsd_fact_store_retracts")
          .string();
  auto cleanup = [&] {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path(), ec)) {
      if (e.path().filename().string().rfind("lsd_fact_store_retracts", 0) ==
          0) {
        std::filesystem::remove(e.path(), ec);
      }
    }
  };
  cleanup();
  std::set<Fact, OrderSrt> model;
  {
    LooseDbOptions options;
    options.standard_rules = false;
    LooseDb db(options);
    ASSERT_TRUE(db.Open(prefix).ok());
    const std::vector<Fact> facts = BulkFacts(&db.entities(), 20000);
    db.AssertRun(facts);
    model.insert(facts.begin(), facts.end());
    ASSERT_TRUE(db.Checkpoint().ok());
    Rng rng(9);
    for (size_t i = 0; i < facts.size(); ++i) {
      if (i % 5 == 0) {
        ASSERT_TRUE(db.Retract(facts[i]));
        model.erase(facts[i]);
      } else if (i % 97 == 0) {
        const Fact fresh(facts[i].target, facts[i].relationship,
                         facts[i].source);
        db.Assert(fresh);
        model.insert(fresh);
      }
    }
    std::vector<Fact> run;
    for (size_t i = 1; i < facts.size(); i += 7) run.push_back(facts[i]);
    size_t expect = 0;
    for (const Fact& f : run) expect += model.erase(f);
    EXPECT_EQ(db.RetractRun(run), expect);
    ASSERT_TRUE(db.wal_status().ok());
  }
  LooseDbOptions options;
  options.standard_rules = false;
  LooseDb recovered(options);
  ASSERT_TRUE(recovered.Open(prefix).ok());
  EXPECT_TRUE(recovered.last_recovery().snapshot_loaded);
  EXPECT_GT(recovered.last_recovery().records_replayed, 6000u);
  const std::vector<Fact> got = recovered.store().base().Materialize();
  const std::set<Fact, OrderSrt> recovered_facts(got.begin(), got.end());
  EXPECT_EQ(recovered_facts, model);
  EXPECT_EQ(recovered.store().size(), model.size());
  cleanup();
}

// Asserted segments are shared across epochs and reader threads: readers
// enumerate pinned epochs while a writer retracts (copy-on-write segment
// rebuilds) and asserts. Every pinned epoch must keep answering its own
// fact count. Run under TSan in CI.
TEST(FactStoreSharingTest, ReadersOnPinnedEpochsRaceRetractingWriter) {
  SharedStore shared;
  auto seeded = shared.Commit([](LooseDb& d) {
    d.AssertRun(BulkFacts(&d.entities(), 4000));
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  auto reader = [&] {
    while (!stop.load()) {
      EpochPtr pin = shared.snapshot();
      const FactStore& store = pin->db().store();
      size_t n = 0;
      store.base().ForEach(Pattern(), [&n](const Fact&) {
        ++n;
        return true;
      });
      if (n != store.size()) mismatches.fetch_add(1);
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (int i = 0; i < 40; ++i) {
    auto committed = shared.Commit([i](LooseDb& d) {
      const std::vector<Fact> facts = d.store().base().Materialize();
      d.Retract(facts[(static_cast<size_t>(i) * 97) % facts.size()]);
      d.Assert("W" + std::to_string(i), "WROTE", "X");
      return Status::OK();
    });
    ASSERT_TRUE(committed.ok());
  }
  stop.store(true);
  r1.join();
  r2.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lsd
