// FactStore: the explicitly asserted fact set (the paper's P, Sec 2.6)
// plus the entity table. Derived facts (closure) and virtual facts (math,
// ISA axioms) are layered on top via the FactSource interface, so query
// evaluation is uniform over "P ∪ derived ∪ virtual".
//
// The asserted facts live in exactly one place: a generational
// DeltaIndex (immutable CSR segments shared by pointer + a small
// TripleIndex overlay). The closure's base tier reads this same index,
// and CloneInto() gives a commit epoch its own overlay while sharing
// every segment, so one resident copy of the facts serves every epoch that
// has not changed them. Bulk paths (text load, snapshot load, WAL
// replay, mutation batches) hand runs to AssertRun/RetractRun — or
// buffer them through a RunLoader — instead of going fact by fact.
#ifndef LSD_STORE_FACT_STORE_H_
#define LSD_STORE_FACT_STORE_H_

#include <string_view>
#include <vector>

#include "store/delta_index.h"
#include "store/entity_table.h"
#include "store/fact.h"
#include "store/fact_source.h"
#include "util/status.h"

namespace lsd {

class FactStore {
 public:
  FactStore() = default;

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  EntityTable& entities() { return entities_; }
  const EntityTable& entities() const { return entities_; }

  // Asserts a fact by ids. Returns true if new.
  bool Assert(const Fact& f);
  // Asserts by names, interning as needed.
  Fact Assert(std::string_view source, std::string_view relationship,
              std::string_view target);

  // Asserts a batch as one sorted run (any order, duplicates allowed):
  // facts already asserted are skipped, a run of at least
  // DeltaIndex::kL0MinRun new facts becomes one frozen segment, a smaller
  // one lands in the overlay. Returns the number of new facts; `added`,
  // when non-null, receives them in SRT order. The version advances by
  // one per new fact, exactly as fact-by-fact Assert would.
  size_t AssertRun(std::vector<Fact> facts,
                   std::vector<Fact>* added = nullptr);

  // Retracts an asserted fact. Returns true if it was present. Never
  // mutates a segment another store (an older epoch) shares; see
  // DeltaIndex::EraseRun.
  bool Retract(const Fact& f);

  // Retracts a batch (any order, duplicates allowed) as one run: each
  // segment holding any of its facts is rebuilt once. Returns the number
  // of facts removed; `removed`, when non-null, receives them in SRT
  // order. The version advances by one per removed fact, exactly as
  // fact-by-fact Retract would.
  size_t RetractRun(std::vector<Fact> facts,
                    std::vector<Fact>* removed = nullptr);

  bool Contains(const Fact& f) const { return facts_.Contains(f); }

  // The asserted facts. Also a FactSource, so it joins match pipelines
  // directly.
  const DeltaIndex& base() const { return facts_; }
  size_t size() const { return facts_.size(); }

  // Storage-layout surgery for the background compactor's swap
  // (LooseDb::InstallCompactedTiers), which changes no logical content
  // and therefore leaves version() alone. Logical changes must go through
  // Assert/Retract/AssertRun/RetractRun.
  DeltaIndex* mutable_base() { return &facts_; }

  // Copies this store into `out` (which must be empty): entities are
  // re-interned in id order, the fact segments are shared by pointer and
  // only the overlay is copied, and the mutation clock is adopted.
  Status CloneInto(FactStore* out) const;

  // Relationship classes (Sec 2.2). A relationship is a class
  // relationship iff (r, IN, CLASS-REL) is asserted; membership IN itself
  // is a class relationship by definition (Sec 2.3) and generalization
  // ISA is individual.
  bool IsClassRelationship(EntityId r) const;
  void MarkClassRelationship(EntityId r);

  // Monotonically increasing counter bumped on every Assert/Retract;
  // closures cache against it.
  uint64_t version() const { return version_; }

 private:
  EntityTable entities_;
  DeltaIndex facts_;
  uint64_t version_ = 0;
};

// Buffers a sequence of asserts and retracts and applies it as runs:
// consecutive asserts through Store::AssertRun, consecutive retracts
// through Store::RetractRun. Switching from one kind to the other
// flushes the buffer first, so the sequence keeps its sequential
// meaning. This is the bulk path for everything that sees one fact at a
// time: .lsd text and WAL replay (over a FactStore), the server's
// mutation batches, the replication follower's apply and the workload
// generators (over a LooseDb, which also logs and maintains its
// closure). Flushes on destruction.
template <typename Store>
class RunLoader {
 public:
  explicit RunLoader(Store* store) : store_(store) {}
  ~RunLoader() { Flush(); }

  RunLoader(const RunLoader&) = delete;
  RunLoader& operator=(const RunLoader&) = delete;

  void Assert(const Fact& f) {
    if (retracting_) Flush();
    retracting_ = false;
    pending_.push_back(f);
  }
  void Retract(const Fact& f) {
    if (!retracting_) Flush();
    retracting_ = true;
    pending_.push_back(f);
  }

  // Applies the buffered run.
  void Flush() {
    if (pending_.empty()) return;
    if (retracting_) {
      removed_ += store_->RetractRun(std::move(pending_));
    } else {
      added_ += store_->AssertRun(std::move(pending_));
    }
    pending_.clear();
  }

  // Facts newly asserted and facts actually retracted by the runs
  // flushed so far.
  size_t added() const { return added_; }
  size_t removed() const { return removed_; }

 private:
  Store* store_;
  std::vector<Fact> pending_;
  bool retracting_ = false;
  size_t added_ = 0;
  size_t removed_ = 0;
};

using FactLoader = RunLoader<FactStore>;

}  // namespace lsd

#endif  // LSD_STORE_FACT_STORE_H_
