#include "rules/rule_engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "rules/matcher.h"
#include "util/cpus.h"

namespace lsd {

namespace {

// True if this body atom addresses a virtual relation: such atoms are
// never new between rounds, so semi-naive evaluation must not pin them
// to the delta.
bool IsVirtualAtom(const Template& t) {
  return t.relationship.is_entity() &&
         MathProvider::IsComparator(t.relationship.entity());
}

// Below this many delta facts per worker a round stays on the calling
// thread: spawning would cost more than the match work it distributes.
constexpr size_t kMinFactsPerWorker = 64;

// One rule prepared for seed-first matching: for every non-virtual
// ("pinnable") body atom, the prebuilt specs of the remaining atoms,
// each joined against the full snapshot once a delta fact has been
// unified into the pinned atom.
struct PinnedRule {
  const Rule* rule = nullptr;
  std::vector<size_t> pins;
  std::vector<std::vector<AtomSpec>> rest;
  // rest_enumerable[k]: the k-th rest conjunction is enumerable under any
  // binding (single atom with a concrete, non-comparator relationship),
  // so the per-seed Enumerable probe can be skipped.
  std::vector<uint8_t> rest_enumerable;
};

// Everything a round's match reads. All pointees are immutable while
// workers run; mutation (installing the merged round output) happens
// single-threaded between rounds.
struct RoundContext {
  const std::vector<PinnedRule>* prules;
  const FactStore* store;
  const MathProvider* math;
  const DeltaIndex* base;
  const DeltaIndex* derived;
  // class_rel[e] caches store->IsClassRelationship(e) for every interned
  // entity: the var filter probes it per candidate binding, and a flat
  // array beats a probe of every tier of the store's index. No new
  // entities are interned during a fixpoint, so the snapshot stays valid.
  const std::vector<uint8_t>* class_rel;
  // Shared cancellation token (may be null). Each worker amortizes it
  // through its own BudgetTicker; the step counter is atomic, so the cap
  // holds across threads.
  const QueryBudget* budget = nullptr;
};

// Output buffer of one worker (or of the sequential path). Candidates
// may repeat within and across workers; the round merge deduplicates.
struct WorkerResult {
  std::vector<Fact> candidates;
  size_t candidate_facts = 0;
  Status status;
};

// Per-variable admissibility check against the rule's VarConstraints.
// A concrete functor (not std::function) so the hot loops inline it;
// `active` is false for the common unconstrained rule, letting callers
// skip the check entirely.
struct FilterFn {
  const std::vector<uint8_t>* class_rel = nullptr;
  const Rule* rule = nullptr;
  bool active = false;

  bool operator()(VarId v, EntityId e) const {
    const bool is_class = e < class_rel->size() && (*class_rel)[e] != 0;
    switch (rule->var_constraints[v]) {
      case VarConstraint::kIndividualRelationship:
        return !is_class;
      case VarConstraint::kClassRelationship:
        return is_class;
      case VarConstraint::kNone:
        return true;
    }
    return true;
  }
};

FilterFn MakeFilterFn(const RoundContext& ctx, const Rule& rule) {
  FilterFn f{ctx.class_rel, &rule, false};
  for (VarConstraint c : rule.var_constraints) {
    if (c != VarConstraint::kNone) {
      f.active = true;
      break;
    }
  }
  return f;
}

// Instantiates the rule heads for one admissible body binding. Concrete
// for the same reason as FilterFn: this runs once per candidate binding,
// and the Substitute/Contains chain inlines into the join loops.
struct DeriveFn {
  const MathProvider* math;
  const DeltaIndex* base;
  const DeltaIndex* derived;
  const Rule* rule;
  WorkerResult* out;

  DeriveFn(const RoundContext& ctx, const Rule& r, WorkerResult* o)
      : math(ctx.math), base(ctx.base), derived(ctx.derived), rule(&r),
        out(o) {}

  bool operator()(const Binding& binding) const {
    for (const Template& head : rule->head) {
      ++out->candidate_facts;
      Fact f = head.Substitute(binding);
      // A derived comparison that already holds virtually adds nothing;
      // one that does not hold is stored so the integrity checker can
      // report the contradiction.
      if (MathProvider::IsComparator(f.relationship) && math->Holds(f)) {
        continue;
      }
      if (base->Contains(f) || derived->Contains(f)) continue;
      out->candidates.push_back(f);
    }
    return true;
  }
};

// The over-delete head functor (ExtendClosure step 1): collects every
// instantiated head the derived tier holds, i.e. every derived fact with
// a derivation that may have used a removed fact.
struct OverDeleteFn {
  const DeltaIndex* derived;
  const Rule* rule;
  WorkerResult* out;

  OverDeleteFn(const RoundContext& ctx, const Rule& r, WorkerResult* o)
      : derived(ctx.derived), rule(&r), out(o) {}

  bool operator()(const Binding& binding) const {
    for (const Template& head : rule->head) {
      ++out->candidate_facts;
      const Fact f = head.Substitute(binding);
      if (derived->Contains(f)) out->candidates.push_back(f);
    }
    return true;
  }
};

// Matches every body atom of `rule` against the full snapshot. Used by
// the naive strategy and, in round 1 of semi-naive, by rules whose body
// is purely virtual (they fire at most once).
Status MatchFullRule(const RoundContext& ctx, const Rule& rule,
                     const FactSource& full, WorkerResult* out) {
  FilterFn filter = MakeFilterFn(ctx, rule);
  VarFilter vf = filter.active ? VarFilter(filter) : VarFilter();
  BindingVisitor derive = DeriveFn(ctx, rule, out);
  Binding binding(rule.num_vars());
  // Closure bodies are 1-2 atoms matched once per round: the dynamic
  // bound-count pick is already optimal there and skips the planner's
  // estimation step.
  return MatchConjunction(full, rule.body, binding, vf, derive,
                          JoinOrder::kBoundCount, /*planner=*/nullptr,
                          /*merge_join=*/true, ctx.budget);
}

// Joins the single remaining body atom against its source under the
// seed binding, calling `derive` for every admissible extension. This is
// the dominant shape (every standard rule has a body of one or two
// atoms), so it bypasses MatchRec's atom-selection scan and runs
// allocation-free per seed.
template <typename HeadFn>
Status MatchSingleRest(const AtomSpec& atom, bool always_enumerable,
                       Binding& binding, const FilterFn& filter,
                       const HeadFn& derive, BudgetTicker& ticker) {
  const Pattern p = atom.tmpl.Bind(binding);
  if (!always_enumerable && p.BoundCount() < 3 &&
      !atom.source->Enumerable(p)) {
    return Status::InvalidArgument(
        "unsafe conjunction: remaining atoms have unbound operands of a "
        "non-enumerable (virtual) relation");
  }
  VarId atom_vars[3];
  const size_t num_atom_vars = atom.tmpl.CollectVars(atom_vars);
  Status budget_status = Status::OK();
  atom.source->ForEach(p, [&](const Fact& g) {
    if (!ticker.TickOk()) {
      budget_status = ticker.trip();
      return false;
    }
    VarId newly_bound[3];
    size_t num_newly_bound = 0;
    for (size_t i = 0; i < num_atom_vars; ++i) {
      if (!binding.IsBound(atom_vars[i])) {
        newly_bound[num_newly_bound++] = atom_vars[i];
      }
    }
    if (!atom.tmpl.Unify(g, binding)) return true;  // shared-var clash
    bool admissible = true;
    if (filter.active) {
      for (size_t i = 0; i < num_newly_bound; ++i) {
        const VarId v = newly_bound[i];
        if (!filter(v, binding.Get(v))) {
          admissible = false;
          break;
        }
      }
    }
    if (admissible) derive(binding);
    for (size_t i = 0; i < num_newly_bound; ++i) {
      binding.Unset(newly_bound[i]);
    }
    return true;
  });
  return budget_status;
}

// Seed-first semi-naive match of one contiguous slice of the round's
// delta: each delta fact is unified into each pinnable atom, then the
// remaining atoms join against the snapshot, and HeadFn (DeriveFn or
// OverDeleteFn) takes every admissible binding. Reads only the
// RoundContext snapshot; writes only into `out`, so slices run
// concurrently.
template <typename HeadFn>
void MatchDeltaSlice(const RoundContext& ctx, const Fact* facts, size_t n,
                     WorkerResult* out) {
  BudgetTicker ticker(ctx.budget);
  for (const PinnedRule& pr : *ctx.prules) {
    const Rule& rule = *pr.rule;
    FilterFn filter = MakeFilterFn(ctx, rule);
    HeadFn derive(ctx, rule, out);
    // Type-erased wrappers, needed only by the general (>= 2 rest atoms)
    // path; built lazily since no standard rule takes it.
    VarFilter vf;
    BindingVisitor bv;
    for (size_t k = 0; k < pr.pins.size(); ++k) {
      const Template& pin = rule.body[pr.pins[k]];
      const std::vector<AtomSpec>& rest = pr.rest[k];
      VarId pin_vars[3];
      const size_t num_pin_vars = pin.CollectVars(pin_vars);
      Binding binding(rule.num_vars());
      for (size_t fi = 0; fi < n; ++fi) {
        if (!ticker.TickOk()) {
          out->status = ticker.trip();
          return;
        }
        if (!pin.Unify(facts[fi], binding)) continue;
        bool admissible = true;
        if (filter.active) {
          for (size_t i = 0; i < num_pin_vars; ++i) {
            const VarId v = pin_vars[i];
            if (!filter(v, binding.Get(v))) {
              admissible = false;
              break;
            }
          }
        }
        if (admissible) {
          Status s;
          if (rest.empty()) {
            derive(binding);
          } else if (rest.size() == 1) {
            s = MatchSingleRest(rest[0], pr.rest_enumerable[k] != 0,
                                binding, filter, derive, ticker);
          } else {
            if (!bv) {
              bv = BindingVisitor(derive);
              if (filter.active) vf = VarFilter(filter);
            }
            // Per-delta-fact residual joins: planning each one would
            // cost more than the dynamic bound-count pick saves.
            s = MatchConjunction(rest, binding, vf, bv,
                                 JoinOrder::kBoundCount, /*planner=*/nullptr,
                                 /*merge_join=*/true, ctx.budget);
          }
          if (!s.ok()) {
            out->status = s;
            return;
          }
        }
        for (size_t i = 0; i < num_pin_vars; ++i) {
          binding.Unset(pin_vars[i]);
        }
      }
    }
  }
}

// class_rel[e] caches store.IsClassRelationship(e) for every interned
// entity (see RoundContext::class_rel).
std::vector<uint8_t> ClassRelMap(const FactStore& store) {
  std::vector<uint8_t> class_rel(store.entities().size());
  for (EntityId e = 0; e < class_rel.size(); ++e) {
    class_rel[e] = store.IsClassRelationship(e) ? 1 : 0;
  }
  return class_rel;
}

// Prepares the seed-first plans of the enabled rules, every remaining
// atom joined against `full`; rules with no pinnable atom go to
// `virtual_only` (they fire at most once, in round 1 of a fresh closure).
void PrepareRules(const std::vector<Rule>& rules, const FactSource* full,
                  std::vector<PinnedRule>* prules,
                  std::vector<const Rule*>* virtual_only) {
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    PinnedRule pr;
    pr.rule = &rule;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (IsVirtualAtom(rule.body[i])) continue;
      pr.pins.push_back(i);
      std::vector<AtomSpec> rest;
      rest.reserve(rule.body.size() - 1);
      for (size_t j = 0; j < rule.body.size(); ++j) {
        if (j != i) rest.push_back(AtomSpec{rule.body[j], full});
      }
      const bool enumerable =
          rest.size() == 1 && !IsVirtualAtom(rest[0].tmpl) &&
          rest[0].tmpl.relationship.is_entity();
      pr.rest_enumerable.push_back(enumerable ? 1 : 0);
      pr.rest.push_back(std::move(rest));
    }
    if (pr.pins.empty()) {
      virtual_only->push_back(&rule);
    } else {
      prules->push_back(std::move(pr));
    }
  }
}

// One seed-first round over `delta`: partitions it across up to
// `num_threads` workers, each running MatchDeltaSlice<HeadFn>, and
// appends every worker's candidates to `out` in worker order (a
// deterministic merge; duplicates remain). Adds the workers used to
// `stats`.
template <typename HeadFn>
Status MatchRound(const RoundContext& ctx, const std::vector<Fact>& delta,
                  size_t num_threads, ClosureStats* stats,
                  WorkerResult* out) {
  const size_t n = delta.size();
  const size_t workers =
      std::max<size_t>(1, std::min(num_threads, n / kMinFactsPerWorker));
  stats->workers = std::max(stats->workers, workers);
  if (workers == 1) {
    MatchDeltaSlice<HeadFn>(ctx, delta.data(), n, out);
    return out->status;
  }
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  const size_t chunk = (n + workers - 1) / workers;
  const Fact* facts = delta.data();
  for (size_t w = 1; w < workers; ++w) {
    const size_t begin = std::min(n, w * chunk);
    const size_t count = std::min(n - begin, chunk);
    threads.emplace_back([&ctx, &results, facts, begin, count, w] {
      MatchDeltaSlice<HeadFn>(ctx, facts + begin, count, &results[w]);
    });
  }
  MatchDeltaSlice<HeadFn>(ctx, facts, std::min(n, chunk), &results[0]);
  for (std::thread& t : threads) t.join();
  for (WorkerResult& r : results) {
    LSD_RETURN_IF_ERROR(r.status);
    out->candidate_facts += r.candidate_facts;
    out->candidates.insert(out->candidates.end(), r.candidates.begin(),
                           r.candidates.end());
  }
  return Status::OK();
}

// Sorts and deduplicates a round's candidates.
void SortUnique(std::vector<Fact>* facts) {
  std::sort(facts->begin(), facts->end(), OrderSrt());
  facts->erase(std::unique(facts->begin(), facts->end()), facts->end());
}

// The SRT-sorted union of two SRT-sorted, duplicate-free runs.
std::vector<Fact> SortedUnion(const std::vector<Fact>& a,
                              const std::vector<Fact>& b) {
  std::vector<Fact> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out), OrderSrt());
  return out;
}

// ExtendClosure step 3's test: the candidates (SRT-sorted) that a
// fresh closure would hold as derived facts because some rule derives
// them in one step from `full` (the store, the surviving derived tier
// and the virtual layers) — not asserted, not a comparison that holds
// virtually, and admissible under the rule's VarConstraints, including
// the variables the head binds.
StatusOr<std::vector<Fact>> Rederivable(const RoundContext& ctx,
                                        const std::vector<Rule>& rules,
                                        const FactSource& full,
                                        const std::vector<Fact>& candidates) {
  std::vector<Fact> out;
  for (const Fact& c : candidates) {
    if (MathProvider::IsComparator(c.relationship) && ctx.math->Holds(c)) {
      continue;
    }
    if (ctx.base->Contains(c)) continue;
    bool found = false;
    for (const Rule& rule : rules) {
      if (found) break;
      if (!rule.enabled) continue;
      const FilterFn filter = MakeFilterFn(ctx, rule);
      const VarFilter vf = filter.active ? VarFilter(filter) : VarFilter();
      for (const Template& head : rule.head) {
        Binding binding(rule.num_vars());
        if (!head.Unify(c, binding)) continue;
        VarId head_vars[3];
        const size_t num_head_vars = head.CollectVars(head_vars);
        bool admissible = true;
        for (size_t i = 0; filter.active && admissible && i < num_head_vars;
             ++i) {
          admissible = filter(head_vars[i], binding.Get(head_vars[i]));
        }
        if (!admissible) continue;
        LSD_RETURN_IF_ERROR(MatchConjunction(
            full, rule.body, binding, vf,
            [&found](const Binding&) {
              found = true;
              return false;  // one derivation suffices
            },
            JoinOrder::kBoundCount, /*planner=*/nullptr,
            /*merge_join=*/true, ctx.budget));
        if (found) break;
      }
    }
    if (found) out.push_back(c);
  }
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<Closure>> RuleEngine::ComputeClosure(
    const std::vector<Rule>& rules, const ClosureOptions& options) const {
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    LSD_RETURN_IF_ERROR(rule.Validate());
  }
  // The fixpoint reads the store's own index as its base tier: the
  // store cannot change during the fixpoint.
  std::vector<Fact> delta_facts;
  if (options.strategy == ClosureOptions::Strategy::kSemiNaive) {
    // Round 1 treats every asserted fact as new.
    delta_facts = store_->base().Materialize();
  }
  ClosureStats stats;
  stats.full_recomputes = 1;
  return RunFixpoint(rules, options, DeltaIndex(), stats,
                     std::move(delta_facts), /*fire_virtual_only=*/true);
}

StatusOr<std::unique_ptr<Closure>> RuleEngine::ExtendClosure(
    const std::vector<Rule>& rules, DeltaIndex derived, ClosureStats stats,
    std::vector<Fact> added, std::vector<Fact> removed,
    const ClosureOptions& options) const {
  if (options.strategy != ClosureOptions::Strategy::kSemiNaive) {
    return Status::InvalidArgument(
        "ExtendClosure requires the semi-naive strategy");
  }
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    LSD_RETURN_IF_ERROR(rule.Validate());
  }
  const DeltaIndex& base = store_->base();
  for (const Fact& f : added) {
    if (!base.Contains(f)) {
      return Status::FailedPrecondition(
          "ExtendClosure: an added fact is not asserted");
    }
  }
  for (const Fact& f : removed) {
    if (base.Contains(f)) {
      return Status::FailedPrecondition(
          "ExtendClosure: a removed fact is still asserted");
    }
  }
  const auto started = std::chrono::steady_clock::now();
  // An added fact the tier had already derived moves to the asserted
  // tier (the tiers stay disjoint); its consequences are all present.
  std::vector<Fact> erase;
  for (const Fact& f : added) {
    if (derived.Contains(f)) erase.push_back(f);
  }
  // The added facts are already in the store's index (the base tier);
  // with the rederived facts they seed the first semi-naive round.
  std::vector<Fact> seeds = std::move(added);
  if (removed.empty()) {
    ++stats.extensions;
    if (!erase.empty()) derived.EraseRun(erase);
  } else {
    ++stats.retract_maintenances;
    const size_t num_threads =
        options.num_threads == 0 ? UsableCpus() : options.num_threads;
    const std::vector<uint8_t> class_rel = ClassRelMap(*store_);
    RoundContext ctx{nullptr,  store_,     math_,         &base,
                     &derived, &class_rel, options.budget};

    // 1. Over-delete, joining against store ∪ derived ∪ removed.
    DeltaIndex removed_tier;
    removed_tier.InsertRun(removed);
    UnionSource pre({&base, &derived, &removed_tier, math_});
    std::vector<PinnedRule> prules;
    std::vector<const Rule*> virtual_only;  // never pinned on a deletion
    PrepareRules(rules, &pre, &prules, &virtual_only);
    ctx.prules = &prules;
    std::vector<Fact> deleted;
    std::vector<Fact> delta = removed;
    while (!delta.empty()) {
      if (options.budget != nullptr) {
        LSD_RETURN_IF_ERROR(options.budget->Check());
      }
      WorkerResult round;
      LSD_RETURN_IF_ERROR(MatchRound<OverDeleteFn>(ctx, delta, num_threads,
                                                   &stats, &round));
      stats.candidate_facts += round.candidate_facts;
      SortUnique(&round.candidates);
      delta.clear();
      std::set_difference(round.candidates.begin(), round.candidates.end(),
                          deleted.begin(), deleted.end(),
                          std::back_inserter(delta), OrderSrt());
      deleted = SortedUnion(deleted, delta);
    }

    // 2. Erase, in one run.
    derived.EraseRun(SortedUnion(erase, deleted));

    // 3. Rederive what still has a one-step derivation; the fixpoint
    // below finds everything that follows from it.
    UnionSource surviving({&base, &derived, math_});
    LSD_ASSIGN_OR_RETURN(
        std::vector<Fact> back,
        Rederivable(ctx, rules, surviving, SortedUnion(deleted, removed)));
    derived.InsertRun(back);
    seeds = SortedUnion(back, seeds);
  }
  stats.ms += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - started)
                  .count();
  // Virtual-only rules are skipped: they fired when the seed closure was
  // computed, and nothing they read has changed.
  return RunFixpoint(rules, options, std::move(derived), stats,
                     std::move(seeds), /*fire_virtual_only=*/false);
}

StatusOr<std::unique_ptr<Closure>> RuleEngine::RunFixpoint(
    const std::vector<Rule>& rules, const ClosureOptions& options,
    DeltaIndex derived, ClosureStats stats, std::vector<Fact> delta_facts,
    bool fire_virtual_only) const {
  const bool semi_naive =
      options.strategy == ClosureOptions::Strategy::kSemiNaive;
  const auto started = std::chrono::steady_clock::now();
  const size_t num_threads =
      options.num_threads == 0 ? UsableCpus() : options.num_threads;

  const DeltaIndex& base = store_->base();
  UnionSource full({&base, &derived, math_});
  const std::vector<uint8_t> class_rel = ClassRelMap(*store_);
  RoundContext ctx{nullptr,  store_,     math_,         &base,
                   &derived, &class_rel, options.budget};

  // Prepare the seed-first plans; rules with no pinnable atom fire (at
  // most) once, in round 1.
  std::vector<PinnedRule> prules;
  std::vector<const Rule*> virtual_only;
  if (semi_naive) PrepareRules(rules, &full, &prules, &virtual_only);
  ctx.prules = &prules;

  bool first_round = true;
  // `stats.rounds` accumulates across a seed closure and its extensions;
  // the convergence valve bounds only this run.
  size_t rounds_this_run = 0;
  for (;;) {
    ++stats.rounds;
    if (++rounds_this_run > options.max_rounds) {
      return Status::FailedPrecondition(
          "closure did not converge within max_rounds");
    }
    // Round boundary: re-check the shared token even when the round's
    // delta is too small for the per-fact tickers to settle a stride.
    if (options.budget != nullptr) {
      LSD_RETURN_IF_ERROR(options.budget->Check());
    }

    WorkerResult round;
    if (!semi_naive) {
      for (const Rule& rule : rules) {
        if (!rule.enabled) continue;
        LSD_RETURN_IF_ERROR(MatchFullRule(ctx, rule, full, &round));
      }
    } else {
      if (first_round && fire_virtual_only) {
        for (const Rule* rule : virtual_only) {
          LSD_RETURN_IF_ERROR(MatchFullRule(ctx, *rule, full, &round));
        }
      }
      LSD_RETURN_IF_ERROR(MatchRound<DeriveFn>(ctx, delta_facts, num_threads,
                                               &stats, &round));
    }
    stats.candidate_facts += round.candidate_facts;

    // Dedup candidates (the same fact may be derived along several
    // paths, possibly in different workers) and install the round.
    std::vector<Fact> merged = std::move(round.candidates);
    SortUnique(&merged);
    if (merged.empty()) break;
    // InsertRun appends an L0 segment (or overlay facts) plus a bounded
    // geometric tail-merge — never a full rebuild, so the commit path no
    // longer stalls when the derived set crosses a size threshold;
    // merging generations down is the background compactor's job.
    derived.InsertRun(merged);
    if (derived.size() > options.max_derived_facts) {
      return Status::OutOfRange(
          "closure exceeded max_derived_facts (" +
          std::to_string(options.max_derived_facts) +
          "); consider excluding rules or raising the limit");
    }
    delta_facts = std::move(merged);
    first_round = false;
  }

  stats.derived_facts = derived.size();
  stats.ms += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - started)
                  .count();
  return std::make_unique<Closure>(store_, math_, std::move(derived), stats);
}

}  // namespace lsd
