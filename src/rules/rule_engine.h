// Fixpoint computation of the database closure (Sec 2.6): "the set of
// facts that may be obtained by repeated application of the rules".
//
// The default strategy is semi-naive evaluation: each round only matches
// rule bodies against derivations that are new since the previous round,
// which avoids re-deriving the same facts quadratically. The naive
// strategy (re-match everything each round) is kept as the experiment E1
// baseline.
//
// The semi-naive round is seed-first and parallel: the round's delta
// facts are partitioned across worker threads, each worker unifies every
// delta fact with every pinnable body atom and joins the remaining atoms
// against a read-only snapshot (the store's generational index + the
// generational derived index), accumulating candidates in a thread-local
// buffer; a single-threaded merge then deduplicates and installs the new
// facts.
// The derived set is identical for every thread count, including 1.
//
// Facts whose relationship is a virtual comparator are special-cased on
// derivation: if the comparison already holds virtually it is not stored;
// otherwise it is stored so the integrity checker can flag it (e.g. an
// integrity rule deriving (-5, >, 0)).
#ifndef LSD_RULES_RULE_ENGINE_H_
#define LSD_RULES_RULE_ENGINE_H_

#include <memory>
#include <vector>

#include "rules/closure_view.h"
#include "rules/math_provider.h"
#include "rules/rule.h"
#include "store/delta_index.h"
#include "store/fact_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace lsd {

struct ClosureOptions {
  enum class Strategy { kSemiNaive, kNaive };
  Strategy strategy = Strategy::kSemiNaive;

  // Safety valves: computing a closure never runs away silently.
  size_t max_derived_facts = 10'000'000;
  size_t max_rounds = 100'000;

  // Worker threads for the semi-naive delta match; 0 means one per CPU
  // in the process's affinity mask (UsableCpus). The result is the same
  // for any value; small rounds stay on the calling thread regardless.
  unsigned num_threads = 0;

  // Optional cooperative cancellation / deadline token. Borrowed; must
  // outlive the ComputeClosure call. Checked at every round boundary and
  // (stride-amortized) per delta fact inside each worker; a tripped
  // budget aborts the fixpoint with its typed error. Each worker thread
  // gets its own ticker over the shared token.
  const QueryBudget* budget = nullptr;
};

struct ClosureStats {
  size_t rounds = 0;
  size_t derived_facts = 0;
  // Number of head instantiations attempted (including duplicates).
  size_t candidate_facts = 0;
  // Most worker threads any semi-naive round ran (1 = sequential), and
  // the fixpoint's wall-clock time. Like `rounds`, both accumulate
  // across a seed closure and its extensions; they describe the run,
  // not the result, so they vary with thread count and machine.
  size_t workers = 0;
  double ms = 0;
  // How the cached closure was kept current: fixpoints computed from
  // scratch, extensions by asserted facts only, and extensions that also
  // retracted (delete-and-rederive). Unlike the fields above these
  // survive a full recompute (LooseDb::View carries them over), so they
  // count over the life of the cache and its CloneInto transplants.
  size_t full_recomputes = 0;
  size_t extensions = 0;
  size_t retract_maintenances = 0;
};

// The materialized closure. Owns the derived fact index and exposes the
// queryable view (asserted ∪ derived ∪ virtual layers). The asserted
// layer is the store's own generational index, read in place — there is
// no second copy — which is valid because any store mutation bumps the
// store version, after which the closure must be maintained (or
// recomputed) before it is read again. The derived tier is a
// DeltaIndex, so a serving tip can maintain it across epochs
// (RuleEngine::ExtendClosure) and the background compactor can fold its
// accumulated segments (LooseDb::InstallCompactedTiers, which uses the
// mutable accessors — only ever on a private, unpublished clone).
class Closure {
 public:
  Closure(const FactStore* store, const MathProvider* math,
          DeltaIndex derived, ClosureStats stats)
      : derived_(std::move(derived)),
        stats_(stats),
        view_(store, &derived_, math) {}

  Closure(const Closure&) = delete;
  Closure& operator=(const Closure&) = delete;

  const DeltaIndex& derived() const { return derived_; }
  const ClosureView& view() const { return view_; }
  const ClosureStats& stats() const { return stats_; }

  // In-place tier surgery for the compaction swap. The view holds a
  // stable pointer to the tier, so swapping its segment list under it is
  // safe — but only while no reader can see this closure (a commit
  // clone before publication).
  DeltaIndex* mutable_derived() { return &derived_; }
  ClosureStats* mutable_stats() { return &stats_; }

 private:
  DeltaIndex derived_;
  ClosureStats stats_;
  ClosureView view_;
};

class RuleEngine {
 public:
  // Both pointers are borrowed and must outlive the engine.
  RuleEngine(const FactStore* store, const MathProvider* math)
      : store_(store), math_(math) {}

  // Computes the closure of the store's facts under the enabled rules.
  // Disabled rules (rule.enabled == false) are skipped — this implements
  // the include()/exclude() operators of Sec 6.1.
  StatusOr<std::unique_ptr<Closure>> ComputeClosure(
      const std::vector<Rule>& rules,
      const ClosureOptions& options = ClosureOptions()) const;

  // Brings a previously computed closure up to date with the asserted
  // facts `added` and `removed` since `derived` was fixed (the store
  // already reflects both), on the derived tier in place:
  //  1. over-delete (DRed, Gupta, Mumick & Subrahmanian, SIGMOD 1993):
  //     seed-first rounds pinned on the removed facts, then on each
  //     round's new deletions, collect every derived fact with a
  //     derivation that may have used one. Bodies join against a
  //     superset of the old closure (store ∪ derived ∪ removed), which
  //     can only over-delete;
  //  2. erase the over-deleted facts, plus any added fact the tier had
  //     already derived (it moves to the asserted tier), in one EraseRun
  //     — which renews the tier's history(), so a compaction plan pinned
  //     before it cannot resurrect an erased fact;
  //  3. rederive: reinsert every over-deleted or removed fact with a
  //     one-step derivation from what survived, then run semi-naive
  //     rounds seeded with those facts and the added ones.
  // With nothing removed this is the plain semi-naive continuation. The
  // result equals ComputeClosure from scratch provided the rules and
  // the class relationships did not change (caller-checked).
  // Preconditions: `added` and `removed` are SRT-sorted, duplicate-free
  // and disjoint; every added fact is asserted and no removed one is
  // (FailedPrecondition otherwise); the strategy is kSemiNaive. `stats`
  // is the seed closure's stats, accumulated into. Virtual-only rules
  // do not fire again (they fired when the seed was computed); they
  // still count in the rederivation check.
  StatusOr<std::unique_ptr<Closure>> ExtendClosure(
      const std::vector<Rule>& rules, DeltaIndex derived, ClosureStats stats,
      std::vector<Fact> added, std::vector<Fact> removed,
      const ClosureOptions& options = ClosureOptions()) const;

 private:
  // Shared fixpoint driver: seeds the first round with `delta_facts`
  // and loops until no new fact is derived. `fire_virtual_only` controls
  // whether rules with no pinnable atom fire in round 1 (fresh closures
  // yes, extensions no).
  StatusOr<std::unique_ptr<Closure>> RunFixpoint(
      const std::vector<Rule>& rules, const ClosureOptions& options,
      DeltaIndex derived, ClosureStats stats, std::vector<Fact> delta_facts,
      bool fire_virtual_only) const;

  const FactStore* store_;
  const MathProvider* math_;
};

}  // namespace lsd

#endif  // LSD_RULES_RULE_ENGINE_H_
