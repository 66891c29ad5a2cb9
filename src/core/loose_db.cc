#include "core/loose_db.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "rules/builtin_rules.h"
#include "store/text_format.h"
#include "util/failpoint.h"

namespace lsd {

LooseDb::LooseDb(const LooseDbOptions& options)
    : options_(options),
      composition_limit_(options.composition_limit),
      math_(&store_.entities()),
      engine_(&store_, &math_) {
  if (options_.standard_rules) {
    for (const Fact& f : StandardSeedFacts()) store_.Assert(f);
    for (Rule& r : StandardRules()) rules_.push_back(std::move(r));
    ++rules_version_;
  }
}

void LooseDb::RecordChange(const Fact& f, bool added) {
  // Without a cached closure the next View() computes from scratch, so
  // there is nothing to maintain.
  if (closure_ != nullptr) closure_delta_.emplace_back(f, added);
}

Status LooseDb::MaybeAutoCheckpoint() {
  if (options_.checkpoint_bytes == 0 || in_checkpoint_ ||
      !wal_.is_open() || save_prefix_.empty() ||
      wal_.generation_bytes() < options_.checkpoint_bytes) {
    return Status::OK();
  }
  in_checkpoint_ = true;
  Status s = Save(save_prefix_);
  in_checkpoint_ = false;
  return s;
}

Status LooseDb::LogAssert(const Fact& f) {
  if (capture_ != nullptr) {
    capture_->push_back(WalAssertRecord(store_, f));
    return Status::OK();
  }
  if (!wal_.is_open()) return Status::OK();
  Status s = wal_.AppendAssert(store_, f);
  if (!s.ok()) {
    if (wal_error_.ok()) wal_error_ = s;
    return s;
  }
  return MaybeAutoCheckpoint();
}

Status LooseDb::LogRetract(const Fact& f) {
  if (capture_ != nullptr) {
    capture_->push_back(WalRetractRecord(store_, f));
    return Status::OK();
  }
  if (!wal_.is_open()) return Status::OK();
  Status s = wal_.AppendRetract(store_, f);
  if (!s.ok()) {
    if (wal_error_.ok()) wal_error_ = s;
    return s;
  }
  return MaybeAutoCheckpoint();
}

Status LooseDb::LogRule(const Rule& rule) {
  if (capture_ != nullptr) {
    capture_->push_back(WalRuleRecord(rule, store_.entities()));
    return Status::OK();
  }
  if (!wal_.is_open()) return Status::OK();
  Status s = wal_.AppendRule(rule, store_.entities());
  if (!s.ok() && wal_error_.ok()) wal_error_ = s;
  return s;
}

Fact LooseDb::Assert(std::string_view source, std::string_view relationship,
                     std::string_view target) {
  Fact f(store_.entities().Intern(source),
         store_.entities().Intern(relationship),
         store_.entities().Intern(target));
  Assert(f);
  return f;
}

bool LooseDb::Assert(const Fact& f) {
  bool inserted = store_.Assert(f);
  if (inserted) {
    // The bool API cannot carry the log's status; a failure is latched
    // in wal_error_ and the poisoned log refuses further appends.
    (void)LogAssert(f);
    RecordChange(f, /*added=*/true);
  }
  return inserted;
}

namespace {

// Calls fn(f) for each fact of `batch` that is in `changed` (an SRT-sorted
// subset of it), in the batch's own order, first occurrence only: how a
// run's effect is logged exactly as fact-by-fact calls would have.
template <typename Fn>
void ForEachInBatchOrder(const std::vector<Fact>& batch,
                         const std::vector<Fact>& changed, Fn fn) {
  std::vector<uint8_t> done(changed.size(), 0);
  for (const Fact& f : batch) {
    auto it = std::lower_bound(changed.begin(), changed.end(), f, OrderSrt());
    if (it == changed.end() || *it != f) continue;
    uint8_t& seen = done[static_cast<size_t>(it - changed.begin())];
    if (seen != 0) continue;
    seen = 1;
    fn(f);
  }
}

}  // namespace

size_t LooseDb::AssertRun(const std::vector<Fact>& facts) {
  std::vector<Fact> added;
  const size_t n = store_.AssertRun(facts, &added);
  ForEachInBatchOrder(facts, added, [this](const Fact& f) {
    (void)LogAssert(f);
    RecordChange(f, /*added=*/true);
  });
  return n;
}

size_t LooseDb::RetractRun(const std::vector<Fact>& facts) {
  std::vector<Fact> removed;
  const size_t n = store_.RetractRun(facts, &removed);
  ForEachInBatchOrder(facts, removed, [this](const Fact& f) {
    (void)LogRetract(f);
    RecordChange(f, /*added=*/false);
  });
  return n;
}

bool LooseDb::Retract(const Fact& f) {
  bool erased = store_.Retract(f);
  if (erased) {
    (void)LogRetract(f);
    RecordChange(f, /*added=*/false);
  }
  return erased;
}

EntityId LooseDb::MustLookup(std::string_view name, Status* status) const {
  auto id = store_.entities().Lookup(name);
  if (!id.has_value()) {
    *status = Status::NotFound("unknown entity: " + std::string(name));
    return kAnyEntity;
  }
  return *id;
}

Status LooseDb::Retract(std::string_view source,
                        std::string_view relationship,
                        std::string_view target) {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId r = MustLookup(relationship, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  if (!Retract(Fact(s, r, t))) {
    return Status::NotFound("fact not asserted");
  }
  return Status::OK();
}

void LooseDb::MarkClassRelationship(std::string_view relationship) {
  store_.MarkClassRelationship(store_.entities().Intern(relationship));
}

Status LooseDb::DefineRule(std::string_view text, RuleKind kind) {
  LSD_ASSIGN_OR_RETURN(Rule rule,
                       ParseRuleLine(text, kind, &store_.entities()));
  return AddRule(std::move(rule));
}

Status LooseDb::AddRule(Rule rule) {
  LSD_RETURN_IF_ERROR(rule.Validate());
  for (const Rule& r : rules_) {
    if (r.name == rule.name) {
      return Status::AlreadyExists("rule '" + rule.name +
                                   "' already defined");
    }
  }
  LSD_RETURN_IF_ERROR(LogRule(rule));
  rules_.push_back(std::move(rule));
  ++rules_version_;
  return MaybeAutoCheckpoint();
}

Status LooseDb::SetRuleEnabled(std::string_view name, bool enabled) {
  for (Rule& r : rules_) {
    if (r.name == name) {
      if (r.enabled != enabled) {
        r.enabled = enabled;
        ++rules_version_;
        if (capture_ != nullptr) {
          capture_->push_back(WalRuleEnabledRecord(r.name, enabled));
        } else if (wal_.is_open()) {
          Status s = wal_.AppendSetRuleEnabled(r.name, enabled);
          if (!s.ok()) {
            if (wal_error_.ok()) wal_error_ = s;
            return s;
          }
          return MaybeAutoCheckpoint();
        }
      }
      return Status::OK();
    }
  }
  return Status::NotFound("no rule named '" + std::string(name) + "'");
}

bool LooseDb::IsRuleEnabled(std::string_view name) const {
  for (const Rule& r : rules_) {
    if (r.name == name) return r.enabled;
  }
  return false;
}

namespace {

// Nets the ordered fact events since a cached closure into the facts
// added and removed overall, SRT-sorted: a fact's first event tells
// whether it was asserted before, its last whether it is asserted now.
// False when an event marks or unmarks a class relationship: that
// changes which old facts pass the rules' VarConstraints, so the
// closure must be recomputed.
bool NetChanges(std::vector<std::pair<Fact, bool>> events,
                std::vector<Fact>* added, std::vector<Fact>* removed) {
  std::stable_sort(events.begin(), events.end(),
                   [](const std::pair<Fact, bool>& a,
                      const std::pair<Fact, bool>& b) {
                     return OrderSrt()(a.first, b.first);
                   });
  for (size_t i = 0, j = 0; i < events.size(); i = j) {
    const Fact& f = events[i].first;
    if (f.relationship == kEntIn && f.target == kEntClassRel) return false;
    while (j < events.size() && events[j].first == f) ++j;
    const bool was = !events[i].second;
    const bool is = events[j - 1].second;
    if (is && !was) added->push_back(f);
    if (was && !is) removed->push_back(f);
  }
  return true;
}

}  // namespace

StatusOr<const ClosureView*> LooseDb::View() const {
  if (closure_ != nullptr && closure_store_version_ == store_.version() &&
      closure_rules_version_ == rules_version_) {
    return &closure_->view();
  }
  ClosureOptions closure_options = options_.closure;
  if (closure_options.budget == nullptr) {
    closure_options.budget = read_budget_;
  }
  // Maintenance (the serving path's common case): when the only change
  // since the cached closure is a known list of fact events, fold
  // exactly those into clones of the cached tiers instead of
  // recomputing from scratch. The version arithmetic proves the list is
  // complete; mutations that bypass it bump the version without growing
  // it and fail the check. A failure leaves `closure_` and the list
  // untouched (the work ran on clones), so the next View() retries.
  std::vector<Fact> added;
  std::vector<Fact> removed;
  const bool maintain =
      closure_ != nullptr && closure_rules_version_ == rules_version_ &&
      store_.version() == closure_store_version_ + closure_delta_.size() &&
      closure_options.strategy == ClosureOptions::Strategy::kSemiNaive &&
      NetChanges(closure_delta_, &added, &removed);
  StatusOr<std::unique_ptr<Closure>> next =
      maintain ? engine_.ExtendClosure(rules_, closure_->derived().Clone(),
                                       closure_->stats(), std::move(added),
                                       std::move(removed), closure_options)
               : engine_.ComputeClosure(rules_, closure_options);
  if (!next.ok()) return next.status();
  if (!maintain && closure_ != nullptr) {
    // The maintenance tallies outlive the closure they describe.
    ClosureStats* stats = (*next)->mutable_stats();
    const ClosureStats& prior = closure_->stats();
    stats->full_recomputes += prior.full_recomputes;
    stats->extensions += prior.extensions;
    stats->retract_maintenances += prior.retract_maintenances;
  }
  closure_ = std::move(*next);
  closure_store_version_ = store_.version();
  closure_rules_version_ = rules_version_;
  closure_delta_.clear();
  return &closure_->view();
}

const ClosureStats* LooseDb::closure_stats() const {
  return closure_ == nullptr ? nullptr : &closure_->stats();
}

StatusOr<LooseDb::StorageMemory> LooseDb::MemoryUsage() const {
  LSD_RETURN_IF_ERROR(View().status());
  StorageMemory mem;
  // The closure reads the store's index in place, so the asserted tier
  // is counted once.
  mem.base = store_.base().MemoryUsage();
  mem.entity_bytes = store_.entities().MemoryUsage();
  mem.derived = closure_->derived().MemoryUsage();
  return mem;
}

StatusOr<const GeneralizationLattice*> LooseDb::Lattice() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  if (lattice_ == nullptr || lattice_store_version_ != store_.version() ||
      lattice_rules_version_ != rules_version_) {
    lattice_ = std::make_unique<GeneralizationLattice>(
        GeneralizationLattice::Build(*view));
    lattice_store_version_ = store_.version();
    lattice_rules_version_ = rules_version_;
  }
  return lattice_.get();
}

PlannerCache* LooseDb::Planner() const {
  if (planner_store_version_ != store_.version() ||
      planner_rules_version_ != rules_version_) {
    planner_.Clear();
    planner_store_version_ = store_.version();
    planner_rules_version_ = rules_version_;
  }
  return &planner_;
}

Status LooseDb::Warm() const {
  LSD_RETURN_IF_ERROR(View().status());
  LSD_RETURN_IF_ERROR(Lattice().status());
  Planner();  // aligns the planner's version key with the snapshot
  return Status::OK();
}

Status LooseDb::CloneInto(LooseDb* out) const {
  if (out->store_.size() != 0 ||
      out->store_.entities().size() != kNumBuiltinEntities ||
      !out->rules_.empty()) {
    return Status::FailedPrecondition(
        "CloneInto requires a fresh LooseDb with standard_rules = false");
  }
  // Entities are re-interned; the fact segments travel by pointer and
  // only the store's overlay is copied.
  LSD_RETURN_IF_ERROR(store_.CloneInto(&out->store_));
  out->rules_ = rules_;
  // Adopt the rules clock like the store's: the serving layer detects a
  // no-op commit by comparing a clone's versions with its tip's, so a
  // clone must start from the tip's values, not from its own count.
  out->rules_version_ = rules_version_;
  out->composition_limit_ = composition_limit_;
  for (const Definition& d : definitions_.all()) {
    Definition copy;
    copy.name = d.name;
    copy.params = d.params;
    copy.body = d.body.Clone();
    LSD_RETURN_IF_ERROR(out->definitions_.Add(std::move(copy)));
  }
  out->storage_generation_ = storage_generation_;
  // Transplant the closure when it is current: the derived tier's frozen
  // segments travel by shared pointer and its overlay by deep copy (the
  // base tier is the clone's own store), so the commit path inherits the
  // seed closure instead of recomputing it — View() on the clone then
  // maintains it with just the commit's fact changes. Skipped when the
  // closure is stale (the clone would inherit a wrong cache).
  if (closure_ != nullptr && closure_store_version_ == store_.version() &&
      closure_rules_version_ == rules_version_) {
    out->closure_ = std::make_unique<Closure>(
        &out->store_, &out->math_, closure_->derived().Clone(),
        closure_->stats());
    out->closure_store_version_ = out->store_.version();
    out->closure_rules_version_ = out->rules_version_;
    out->closure_delta_.clear();
  }
  return Status::OK();
}

StatusOr<LooseDb::CompactionPlan> LooseDb::BuildCompactionPlan() const {
  LSD_RETURN_IF_ERROR(View().status());
  CompactionPlan plan;
  auto build = [](const DeltaIndex& tier, TierPlan* tp) {
    // One segment and no overlay is already fully compacted.
    if (tier.segment_count() <= 1 && tier.overlay_size() == 0) return;
    tp->history = tier.history();
    tp->old_segments = tier.segments();
    FrozenIndex merged = tier.BuildMerged();
    if (merged.size() != 0) {
      tp->merged =
          std::make_shared<const FrozenIndex>(std::move(merged));
    }
  };
  build(store_.base(), &plan.base);
  build(closure_->derived(), &plan.derived);
  return plan;
}

Status LooseDb::InstallCompactedTiers(const CompactionPlan& plan) {
  if (plan.empty()) return Status::OK();
  LSD_RETURN_IF_ERROR(View().status());
  // Validate both tiers before mutating either, so a stale plan aborts
  // with the closure fully intact — the swap below can then no longer
  // fail halfway.
  auto prefix_current = [](const TierPlan& tp, const DeltaIndex& tier) {
    if (tp.trivial()) return true;
    if (tp.history != tier.history()) return false;
    const auto& segs = tier.segments();
    if (tp.old_segments.size() > segs.size()) return false;
    for (size_t i = 0; i < tp.old_segments.size(); ++i) {
      if (segs[i].get() != tp.old_segments[i].get()) return false;
    }
    return true;
  };
  if (!prefix_current(plan.base, store_.base()) ||
      !prefix_current(plan.derived, closure_->derived())) {
    return Status::Aborted(
        "compaction plan is stale: tier generations changed since the pin");
  }
  auto apply = [](const TierPlan& tp, DeltaIndex* tier) -> Status {
    if (tp.trivial()) return Status::OK();
    if (!tier->SwapMergedPrefix(tp.old_segments, tp.merged)) {
      return Status::Internal("compaction swap failed after validation");
    }
    return Status::OK();
  };
  LSD_RETURN_IF_ERROR(apply(plan.base, store_.mutable_base()));
  // Crash window between the two tier swaps: this runs on an unpublished
  // commit clone and writes no WAL records, so recovery (crash-torture's
  // compact.swap trials) must never see the half-swapped state.
  LSD_FAILPOINT(compact.swap);
  LSD_RETURN_IF_ERROR(apply(plan.derived, closure_->mutable_derived()));
  ++storage_generation_;
  return Status::OK();
}

Status LooseDb::CheckIntegrity() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return lsd::CheckIntegrity(*view);
}

StatusOr<std::vector<IntegrityViolation>>
LooseDb::FindIntegrityViolations() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return FindViolations(*view);
}

StatusOr<lsd::Query> LooseDb::Parse(std::string_view text) {
  return ParseQuery(text, &store_.entities());
}

StatusOr<ResultSet> LooseDb::Run(const lsd::Query& query,
                                 const EvalOptions& options) const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Evaluator evaluator(view, &store_.entities());
  EvalOptions effective = options;
  if (effective.planner == nullptr) effective.planner = Planner();
  return evaluator.Evaluate(query, effective);
}

StatusOr<ResultSet> LooseDb::Query(std::string_view text,
                                   const EvalOptions& options) {
  LSD_ASSIGN_OR_RETURN(lsd::Query query, Parse(text));
  return Run(query, options);
}

Status LooseDb::DefineOperator(std::string_view text) {
  return definitions_.Define(text, &store_.entities());
}

StatusOr<ResultSet> LooseDb::Call(std::string_view call_text,
                                  const EvalOptions& options) {
  LSD_ASSIGN_OR_RETURN(
      lsd::Query query,
      definitions_.ParseCall(call_text, &store_.entities()));
  return Run(query, options);
}

StatusOr<NeighborhoodView> LooseDb::Navigate(std::string_view entity,
                                             const QueryBudget* budget) const {
  auto id = store_.entities().Lookup(entity);
  if (!id.has_value()) {
    return Status::NotFound("unknown entity: " + std::string(entity));
  }
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, const_cast<EntityTable*>(&store_.entities()));
  return navigator.Neighborhood(*id, budget);
}

StatusOr<std::vector<Association>> LooseDb::Associations(
    std::string_view source, std::string_view target,
    const QueryBudget* budget) {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, &store_.entities());
  CompositionOptions options;
  options.limit = composition_limit_;
  options.budget = budget;
  return navigator.Associations(s, t, options);
}

StatusOr<std::string> LooseDb::RenderAssociations(std::string_view source,
                                                  std::string_view target,
                                                  const QueryBudget* budget) {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(std::vector<Association> assocs,
                       Associations(source, target, budget));
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, &store_.entities());
  return navigator.RenderAssociations(s, t, assocs);
}

StatusOr<ProbeResult> LooseDb::Probe(std::string_view query_text,
                                     const ProbeOptions& options) {
  LSD_ASSIGN_OR_RETURN(lsd::Query query, Parse(query_text));
  return Probe(query, options);
}

StatusOr<ProbeResult> LooseDb::Probe(const lsd::Query& query,
                                     const ProbeOptions& options) const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  LSD_ASSIGN_OR_RETURN(const GeneralizationLattice* lattice, Lattice());
  Prober prober(view, lattice, &store_.entities(), Planner());
  return prober.Probe(query, options);
}

StatusOr<std::optional<int>> LooseDb::SemanticDistance(
    std::string_view a, std::string_view b, int max_radius,
    const QueryBudget* budget) const {
  Status status;
  EntityId ea = MustLookup(a, &status);
  EntityId eb = MustLookup(b, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  ProximityOptions options;
  options.budget = budget;
  return lsd::SemanticDistance(*view, ea, eb, max_radius, options);
}

StatusOr<std::vector<NearbyEntity>> LooseDb::Nearby(
    std::string_view entity, int radius, const QueryBudget* budget) const {
  Status status;
  EntityId e = MustLookup(entity, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  ProximityOptions options;
  options.budget = budget;
  return lsd::Nearby(*view, e, radius, options);
}

StatusOr<std::string> LooseDb::Try(std::string_view entity) const {
  auto id = store_.entities().Lookup(entity);
  if (!id.has_value()) {
    return Status::NotFound("unknown entity: " + std::string(entity));
  }
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return RenderTry(*view, *id);
}

StatusOr<RelationTable> LooseDb::Relation(
    std::string_view klass,
    const std::vector<std::pair<std::string, std::string>>& columns) const {
  Status status;
  EntityId k = MustLookup(klass, &status);
  std::vector<RelationColumnSpec> specs;
  for (const auto& [rel, target_class] : columns) {
    RelationColumnSpec spec;
    spec.relationship = MustLookup(rel, &status);
    spec.target_class = MustLookup(target_class, &status);
    specs.push_back(spec);
  }
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return RelationOp(*view, k, std::move(specs));
}

Status LooseDb::LoadText(std::string_view text) {
  std::vector<Rule> new_rules;
  // The facts go into the store as one sorted run. With a log or a
  // commit capture attached they are logged as asserts as well, so a
  // load is as durable as the same facts asserted one by one; without
  // one, nothing is collected.
  std::vector<Fact> added;
  const bool logged = capture_ != nullptr || wal_.is_open();
  Status parsed = ParseText(text, &store_, &new_rules, &definitions_,
                            logged ? &added : nullptr);
  for (const Fact& f : added) (void)LogAssert(f);
  LSD_RETURN_IF_ERROR(parsed);
  for (Rule& r : new_rules) {
    LSD_RETURN_IF_ERROR(AddRule(std::move(r)));
  }
  return Status::OK();
}

Status LooseDb::LoadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadText(buffer.str());
}

Status LooseDb::Save(const std::string& path_prefix) {
  const std::string base = path_prefix + ".wal";
  WalOptions wal_options{options_.wal_sync, options_.wal_segment_bytes};
  if (!wal_.is_open() || wal_path_ != base) {
    // Attach to whatever segments already live at this prefix so the
    // checkpoint generation continues past them (a snapshot stamped
    // below a leftover segment's generation would replay stale data).
    wal_.Close();
    LSD_RETURN_IF_ERROR(wal_.Open(base, wal_options, 0));
  }
  // The checkpoint sequence. Each step is individually crash-safe:
  // 1. publish the snapshot (atomic rename) stamped generation G+1;
  //    a crash here recovers from the new snapshot, skipping the old
  //    segments (their generation G predates it);
  // 2. swap the WAL to a fresh segment stamped G+1 and drop the old
  //    segments (BeginGeneration handles its own crash window).
  const uint64_t next_generation = wal_.generation() + 1;
  LSD_RETURN_IF_ERROR(SaveSnapshotAtomic(path_prefix + ".snap", store_,
                                         rules_, next_generation));
  LSD_FAILPOINT(checkpoint.swap);
  LSD_RETURN_IF_ERROR(wal_.BeginGeneration(next_generation));
  wal_path_ = base;
  save_prefix_ = path_prefix;
  wal_error_ = Status::OK();  // the snapshot re-established durability
  return Status::OK();
}

Status LooseDb::Checkpoint() {
  if (save_prefix_.empty()) {
    return Status::FailedPrecondition(
        "Checkpoint() requires a prior Open() or Save()");
  }
  return Save(save_prefix_);
}

Status LooseDb::Open(const std::string& path_prefix) {
  LSD_RETURN_IF_ERROR(Recover(path_prefix));
  wal_path_ = path_prefix + ".wal";
  save_prefix_ = path_prefix;
  wal_error_ = Status::OK();
  WalOptions wal_options{options_.wal_sync, options_.wal_segment_bytes};
  return wal_.Open(wal_path_, wal_options, last_recovery_.generation);
}

Status LooseDb::Recover(const std::string& path_prefix) {
  if (store_.size() != StandardSeedFacts().size() &&
      store_.size() != 0) {
    return Status::FailedPrecondition(
        "Recover() requires a freshly constructed LooseDb");
  }
  last_recovery_ = RecoveryStats();
  uint64_t generation = 0;
  const std::string snap_path = path_prefix + ".snap";
  std::FILE* probe = std::fopen(snap_path.c_str(), "rb");
  if (probe != nullptr) {
    std::fclose(probe);
    // The snapshot contains the seed facts and the standard rules too:
    // load into clean containers.
    if (options_.standard_rules) {
      for (const Fact& f : StandardSeedFacts()) store_.Retract(f);
      rules_.clear();
      ++rules_version_;
    }
    LSD_RETURN_IF_ERROR(
        LoadSnapshot(snap_path, &store_, &rules_, &generation));
    ++rules_version_;
    last_recovery_.snapshot_loaded = true;
  }
  // Replay everything the snapshot does not already contain; segments
  // from generations before the snapshot are checkpoint leftovers.
  LSD_RETURN_IF_ERROR(Wal::Replay(path_prefix + ".wal", &store_, &rules_,
                                  &last_recovery_, generation));
  last_recovery_.generation = generation;
  ++rules_version_;
  return Status::OK();
}

}  // namespace lsd
