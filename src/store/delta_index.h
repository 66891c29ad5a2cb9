// Generational triple index: a small list of immutable FrozenIndex
// *segments* (sorted CSR runs, binary-search ranges) plus a small mutable
// TripleIndex overlay, in the spirit of an LSM tree's levels. Inserts go
// to the overlay; bulk runs become new L0 segments; reads fan out to
// every tier. All tiers are kept disjoint at insert time, so
// concatenating their streams is duplicate-free.
//
// This one structure holds both of the database's stored fact sets:
//  - the asserted facts (FactStore's only copy of them; the closure's
//    base tier reads the same object), and
//  - the rule engine's derived facts (a Closure's second tier).
// A long-lived serving tip extends both across epochs, so probes hit
// cache-friendly sorted arrays instead of node-based std::sets, and an
// epoch clone shares every segment by pointer.
//
// Lifecycle (LSM-style):
//  - InsertRun appends a new frozen segment per bulk run, then applies a
//    geometric tail-merge (merge the newest two segments while the
//    newest is at least half the previous one). Foreground cost is
//    therefore proportional to the run being folded, never to the whole
//    index; merging everything down is the background compactor's job.
//  - Segments are held by shared_ptr, so Clone() shares them across
//    epochs for free and a background compactor can pin them, build one
//    merged CSR generation off-thread, and SwapMergedPrefix it in with an
//    identity-checked CAS (see store/compactor.h).
//  - EraseRun (a retraction from the asserted tier, or the closure's
//    delete-and-rederive on the derived tier) never mutates a segment: it
//    rebuilds each segment holding any of the run's facts once,
//    copy-on-write, in linear time (FrozenIndex::Without), and swaps the
//    new pointer into this index's list only. Epochs still holding the
//    old list keep reading the old segment. Reads never filter
//    tombstones.
#ifndef LSD_STORE_DELTA_INDEX_H_
#define LSD_STORE_DELTA_INDEX_H_

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "store/fact.h"
#include "store/fact_source.h"
#include "store/frozen_index.h"
#include "store/triple_index.h"

namespace lsd {

class DeltaIndex final : public FactSource {
 public:
  // Resident bytes per tier, for the `stats` surfaces and E9/E16.
  struct Memory {
    FrozenIndex::Memory frozen;  // summed over all segments
    size_t overlay_bytes = 0;    // overlay trees + the shadow hash set
    size_t runs = 0;             // number of frozen segments (generations)
    size_t total() const { return frozen.total() + overlay_bytes; }
  };

  // Starts with all tiers empty.
  DeltaIndex() = default;

  // Starts from an existing frozen run (one segment).
  explicit DeltaIndex(FrozenIndex base) {
    if (base.size() != 0) {
      frozen_count_ = base.size();
      segments_.push_back(
          std::make_shared<const FrozenIndex>(std::move(base)));
    }
  }

  DeltaIndex(DeltaIndex&&) = default;
  DeltaIndex& operator=(DeltaIndex&&) = default;

  // Explicit copy: segments are immutable and shared by pointer (O(1)
  // per segment); the overlay trees and shadow hash are deep-copied.
  // This is how closure tiers travel across epochs (LooseDb::CloneInto).
  DeltaIndex Clone() const;

  // Inserts into the overlay. Returns true if the fact was in no tier.
  bool Insert(const Fact& f);

  // Bulk-inserts an SRT-sorted, duplicate-free run (facts already present
  // are skipped). Small runs go to the overlay like Insert; runs of at
  // least kL0MinRun new facts become a new frozen segment, followed by a
  // geometric tail-merge (newest two segments merge while the newest is
  // at least half the previous), so the segment list stays logarithmic in
  // the total size while no single insert rebuilds old generations.
  // Returns the number of facts actually added; when `added` is non-null
  // it receives exactly those facts, in SRT order.
  size_t InsertRun(const std::vector<Fact>& run,
                   std::vector<Fact>* added = nullptr);

  // Removes the facts of `run` (any order, duplicate-free) from whichever
  // tiers hold them. Returns the number removed; when `erased` is
  // non-null it receives exactly those facts, in SRT order. Overlay facts
  // are erased in place; each segment holding any of them costs one
  // copy-on-write rebuild (linear in that segment, which the geometric
  // sizing keeps bounded by the tier), however many of the run it holds,
  // so segments shared with other epochs are never touched. Starts a new
  // history() when anything was removed.
  size_t EraseRun(const std::vector<Fact>& run,
                  std::vector<Fact>* erased = nullptr);
  // EraseRun of one fact. Returns true if it was present.
  bool Erase(const Fact& f);

  // O(segments * log deg) + O(1): overlay membership is answered by a
  // hash set shadowing the overlay; each segment is one packed binary
  // search over the source's row slice. The background compactor exists
  // precisely to keep the segment count small on this hot path.
  bool Contains(const Fact& f) const override {
    for (const auto& seg : segments_) {
      if (seg->Contains(f)) return true;
    }
    return overlay_hash_.count(f) != 0;
  }

  // Streams every segment (oldest first), then the overlay. Within each
  // tier the permutation order applies, but there is no global order
  // across tiers (the FactSource contract promises no order anyway).
  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;

  // Exact: the tiers are disjoint, so counts add.
  size_t CountMatches(const Pattern& p) const;
  size_t EstimateMatches(const Pattern& p) const override {
    return CountMatches(p);
  }

  // Planner estimate: disjoint tiers, so each tier's uniformity-scaled
  // estimate (against its own distinct-value statistics) adds.
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;

  // Sorted free-position values of a two-bound pattern: the segments'
  // runs (zero copy when a single segment answers alone, the common
  // post-compaction state) merged with the overlay's.
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override;
  bool CanSortFreeValues(const Pattern& p) const override {
    return p.BoundCount() == 2;
  }

  Memory MemoryUsage() const;

  // All facts across every tier, in SRT order.
  std::vector<Fact> Materialize() const;

  // Builds the single-segment merge of every tier WITHOUT mutating this
  // index: the background compactor runs this on a pinned (immutable)
  // epoch's tiers, off the commit path.
  FrozenIndex BuildMerged() const;

  // Foreground full merge: every segment plus the overlay folds into one
  // segment. Kept for tools, tests, and cold loads; the serving path
  // uses BuildMerged + SwapMergedPrefix instead.
  void Compact();

  // The compactor's publish step. If this index's segment list still
  // starts with exactly `old_segments` (shared_ptr identity — the
  // generations the merge was built from), replaces that prefix with
  // `merged`, drops overlay facts now covered by `merged`, and returns
  // true. Returns false (index untouched) when the prefix diverged —
  // i.e. a foreground tail-merge consumed one of the pinned generations
  // since the plan was made — in which case the caller retries against
  // the current tiers. Segments appended after the pin survive as the
  // suffix; overlay facts inserted after the pin survive the rebuild
  // (they are not in `merged`).
  bool SwapMergedPrefix(
      const std::vector<std::shared_ptr<const FrozenIndex>>& old_segments,
      std::shared_ptr<const FrozenIndex> merged);

  // Identifies this index's append-only history. Clone() and moves keep
  // it; construction and every Erase/EraseRun that removes a fact draw a
  // fresh value. Appends
  // (Insert, InsertRun) and layout changes (Compact, SwapMergedPrefix)
  // keep it. A compaction plan built from one history may only be
  // installed into the same history: a merge of the pinned facts would
  // otherwise resurrect a fact retracted after the pin, or install the
  // tiers of an index that was rebuilt from scratch meanwhile.
  uint64_t history() const { return history_; }

  size_t size() const { return frozen_count_ + overlay_.size(); }
  bool empty() const { return size() == 0; }
  size_t frozen_size() const { return frozen_count_; }
  size_t overlay_size() const { return overlay_.size(); }
  size_t segment_count() const { return segments_.size(); }

  const std::vector<std::shared_ptr<const FrozenIndex>>& segments() const {
    return segments_;
  }
  const TripleIndex& overlay() const { return overlay_; }

  // Runs below this many new facts go to the overlay; larger runs become
  // L0 segments.
  static constexpr size_t kL0MinRun = 256;

 private:

  // Appends the facts of `run` (SRT-sorted, duplicate-free) present in
  // no tier onto `out`, preserving order: AppendMissing chained across
  // the segments, then the overlay's hash probe.
  void AppendMissingAll(const std::vector<Fact>& run,
                        std::vector<Fact>* out) const;

  static uint64_t NextHistory();

  std::vector<std::shared_ptr<const FrozenIndex>> segments_;
  size_t frozen_count_ = 0;  // sum of segment sizes
  uint64_t history_ = NextHistory();
  TripleIndex overlay_;
  // Mirrors the overlay's contents for O(1) membership probes.
  std::unordered_set<Fact, FactHash> overlay_hash_;
};

}  // namespace lsd

#endif  // LSD_STORE_DELTA_INDEX_H_
