// LooseDb: the public facade of the library — a loosely structured
// database (Sec 2.6): a set of facts and a set of rules whose closure is
// expected to be contradiction-free, with the standard query language
// and both browsing styles on top.
//
// Typical use:
//
//   lsd::LooseDb db;
//   db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
//   db.Assert("SHIPPING", "IN", "DEPARTMENT");
//   auto result = db.Query("(JOHN, WORKS-FOR, ?X)");   // -> SHIPPING,
//                                                      //    DEPARTMENT
//   auto hood = db.Navigate("JOHN");                   // browsing
//   auto probe = db.Probe("(JOHN, MANAGES, ?X)");      // retraction
//
// The closure is computed lazily and cached; fact mutations are folded
// into the cached closure on the next read (RuleEngine::ExtendClosure),
// rule changes recompute it. All operations are Status-based; the
// library never throws.
#ifndef LSD_CORE_LOOSE_DB_H_
#define LSD_CORE_LOOSE_DB_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "browse/navigation.h"
#include "browse/operators.h"
#include "browse/probing.h"
#include "browse/proximity.h"
#include "query/definitions.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "rules/composition.h"
#include "rules/contradiction.h"
#include "rules/rule_engine.h"
#include "store/persistence.h"
#include "util/status.h"

namespace lsd {

struct LooseDbOptions {
  // Install the paper's Sec 3 standard rule set and seed facts.
  bool standard_rules = true;
  ClosureOptions closure;
  // Default composition bound; the limit(n) operator (Sec 6.1).
  int composition_limit = 3;
  // Durability of the attached WAL (Save/Open): fsync every record or
  // just flush it to the OS.
  WalSync wal_sync = WalSync::kFlush;
  // WAL segment rotation threshold (0 disables rotation).
  uint64_t wal_segment_bytes = 4ull << 20;
  // Auto-checkpoint: once this many bytes of WAL records accumulate
  // since the last checkpoint, the next logged mutation triggers
  // Checkpoint() (bounded replay on recovery). 0 disables; call
  // Checkpoint()/Save() manually.
  uint64_t checkpoint_bytes = 0;
};

class LooseDb {
 public:
  explicit LooseDb(const LooseDbOptions& options = LooseDbOptions());

  LooseDb(const LooseDb&) = delete;
  LooseDb& operator=(const LooseDb&) = delete;

  // ---- Facts -----------------------------------------------------------

  // Asserts a fact by entity names (interned as needed).
  Fact Assert(std::string_view source, std::string_view relationship,
              std::string_view target);
  bool Assert(const Fact& f);
  // Asserts a batch (any order, duplicates allowed) as one sorted run:
  // the bulk path behind the server's assert* verb and mutation frames.
  // Each new fact is logged and recorded for closure maintenance exactly
  // as Assert(f) would. Returns the number of new facts.
  size_t AssertRun(const std::vector<Fact>& facts);
  bool Retract(const Fact& f);
  // Retracts a batch (any order, duplicates allowed) as one run (see
  // FactStore::RetractRun); each removed fact is logged as Retract(f)
  // would. Returns the number of facts removed. RunLoader<LooseDb>
  // buffers mixed assert/retract sequences into these two calls.
  size_t RetractRun(const std::vector<Fact>& facts);
  // Retracts by names; NotFound if any name is unknown or the fact is
  // not asserted.
  Status Retract(std::string_view source, std::string_view relationship,
                 std::string_view target);

  // Marks a relationship as a class relationship (Sec 2.2).
  void MarkClassRelationship(std::string_view relationship);

  FactStore& store() { return store_; }
  const FactStore& store() const { return store_; }
  EntityTable& entities() { return store_.entities(); }
  const EntityTable& entities() const { return store_.entities(); }

  // ---- Rules -----------------------------------------------------------

  // Parses and installs "name: (body...) => (head...) [where ...]".
  Status DefineRule(std::string_view text,
                    RuleKind kind = RuleKind::kInference);
  Status AddRule(Rule rule);

  // include(rule)/exclude(rule) (Sec 6.1). NotFound for unknown names.
  Status SetRuleEnabled(std::string_view name, bool enabled);
  bool IsRuleEnabled(std::string_view name) const;

  const std::vector<Rule>& rules() const { return rules_; }

  // limit(n) (Sec 6.1): bound on composition chain length; 1 disables.
  void SetCompositionLimit(int n) { composition_limit_ = n; }
  int composition_limit() const { return composition_limit_; }

  // ---- Versions & cloning ------------------------------------------------

  // The (store, rules) version key pair all internal caches (closure,
  // lattice, planner) are keyed by. Observability breadcrumb for the
  // shell's `stats` and the server's STATS verb; the serving layer also
  // uses the pair to detect no-op commits.
  uint64_t store_version() const { return store_.version(); }
  uint64_t rules_version() const { return rules_version_; }

  // Pre-materializes every lazily computed cache (closure, lattice,
  // planner keying) so subsequent const reads never write the cache
  // fields. A warmed database whose facts and rules no longer change is
  // safe for concurrent readers: the entity table is internally
  // synchronized, the planner cache is mutex-guarded, and everything
  // else is read-only. This is the serving layer's publish barrier.
  Status Warm() const;

  // Copies facts, entities (ids preserved), rules, operator definitions
  // and the composition limit into `out`, which must be freshly
  // constructed with standard_rules = false (clean containers). The
  // asserted facts' frozen segments are shared by pointer and only their
  // small overlay is copied; a current closure is transplanted the same
  // way. WAL attachment is not cloned. This is the serving layer's
  // copy-on-commit path.
  Status CloneInto(LooseDb* out) const;

  // Planner-cache observability (hit rate across this database's life).
  uint64_t planner_hits() const { return planner_.hits(); }
  uint64_t planner_misses() const { return planner_.misses(); }
  size_t planner_plan_count() const { return planner_.plan_count(); }

  // ---- Closure & integrity ----------------------------------------------

  // The queryable closure. Fact mutations since the cached closure are
  // folded into it (RuleEngine::ExtendClosure: semi-naive extension for
  // asserts, delete-and-rederive for retracts); rule changes,
  // class-relationship marks and bulk loads recompute it.
  StatusOr<const ClosureView*> View() const;
  // Stats of the last computed closure (null before the first View()).
  const ClosureStats* closure_stats() const;

  // Resident bytes of the database's storage (experiment E9
  // observability; the shell's `stats` and the server's STATS verb
  // report the breakdown). Computes the closure first if it is stale.
  struct StorageMemory {
    DeltaIndex::Memory base;      // the asserted facts: the store's
                                  // index, which the closure reads in
                                  // place (counted once)
    DeltaIndex::Memory derived;   // derived tier, same shape
    size_t entity_bytes = 0;      // the entity table
    size_t total() const {
      return base.total() + derived.total() + entity_bytes;
    }
  };
  StatusOr<StorageMemory> MemoryUsage() const;

  // ---- Background compaction ---------------------------------------------
  // A serving tip extends its closure tiers across epochs (see View()),
  // so frozen segments and overlay facts accumulate; the background
  // compactor (store/compactor.h, driven by the serving layer) folds them
  // into one CSR generation per tier. The protocol is pin → build → swap:
  // BuildCompactionPlan reads an immutable, warmed epoch's tiers and
  // merges them off the commit path; InstallCompactedTiers, run inside a
  // later commit's mutation on the unpublished clone, validates that the
  // planned segments are still the tiers' prefix (shared_ptr identity —
  // they travel across epochs by pointer) and swaps the merged generation
  // in. A stale plan (a foreground tail-merge consumed a pinned segment
  // meanwhile) returns Aborted and the caller retries against the current
  // tip. Compaction writes no WAL records: it is a storage-layout change
  // with no logical content, so it is a durability no-op and shipped WAL
  // bytes are unchanged for replication.
  struct TierPlan {
    // The tier's DeltaIndex::history() at the pin: a retraction or
    // rebuild since then makes the plan stale even when the segment
    // prefix survived.
    uint64_t history = 0;
    // The segment prefix the merge was built from (empty = overlay-only
    // fold) and its single-segment replacement (null when the tier had
    // nothing to fold).
    std::vector<std::shared_ptr<const FrozenIndex>> old_segments;
    std::shared_ptr<const FrozenIndex> merged;
    bool trivial() const { return old_segments.empty() && merged == nullptr; }
  };
  struct CompactionPlan {
    TierPlan base;      // the store's asserted facts
    TierPlan derived;
    bool empty() const { return base.trivial() && derived.trivial(); }
  };
  StatusOr<CompactionPlan> BuildCompactionPlan() const;
  Status InstallCompactedTiers(const CompactionPlan& plan);
  // Bumped by every InstallCompactedTiers: lets the serving layer tell a
  // compaction-only commit (must publish) from a true no-op (skipped).
  uint64_t storage_generation() const { return storage_generation_; }

  // Sec 2.6: valid databases have contradiction-free closures.
  Status CheckIntegrity() const;
  StatusOr<std::vector<IntegrityViolation>> FindIntegrityViolations() const;

  // ---- Query -----------------------------------------------------------

  StatusOr<lsd::Query> Parse(std::string_view text);
  StatusOr<ResultSet> Run(const lsd::Query& query,
                          const EvalOptions& options = {}) const;
  StatusOr<ResultSet> Query(std::string_view text,
                            const EvalOptions& options = {});

  // The Sec 6.1 definition facility: named retrieval operators defined
  // in the standard query language.
  //   DefineOperator("author-of(?B, ?A) := (?B, AUTHOR, ?A)");
  //   Call("author-of(B-LOGIC, ?WHO)");
  Status DefineOperator(std::string_view text);
  StatusOr<ResultSet> Call(std::string_view call_text,
                           const EvalOptions& options = {});
  const DefinitionRegistry& definitions() const { return definitions_; }

  // ---- Browsing ----------------------------------------------------------
  // Browsing entry points take an optional borrowed QueryBudget; a
  // tripped budget aborts the operation with its typed error. Query/Run/
  // Probe carry theirs inside EvalOptions/ProbeOptions instead.

  // Navigation (Sec 4.1).
  StatusOr<NeighborhoodView> Navigate(
      std::string_view entity, const QueryBudget* budget = nullptr) const;
  // Non-const: composed relationship entities are interned on demand.
  StatusOr<std::vector<Association>> Associations(
      std::string_view source, std::string_view target,
      const QueryBudget* budget = nullptr);
  StatusOr<std::string> RenderAssociations(
      std::string_view source, std::string_view target,
      const QueryBudget* budget = nullptr);

  // Probing (Sec 5).
  StatusOr<ProbeResult> Probe(std::string_view query_text,
                              const ProbeOptions& options = {});
  StatusOr<ProbeResult> Probe(const lsd::Query& query,
                              const ProbeOptions& options = {}) const;

  // Semantic distance (Sec 6.1): shortest fact-chain length between two
  // entities within `max_radius`, or nullopt if unconnected.
  StatusOr<std::optional<int>> SemanticDistance(
      std::string_view a, std::string_view b, int max_radius = 4,
      const QueryBudget* budget = nullptr) const;
  // All entities within `radius` associations of `entity`.
  StatusOr<std::vector<NearbyEntity>> Nearby(
      std::string_view entity, int radius = 2,
      const QueryBudget* budget = nullptr) const;

  // Operators (Sec 6.1).
  StatusOr<std::string> Try(std::string_view entity) const;
  StatusOr<RelationTable> Relation(
      std::string_view klass,
      const std::vector<std::pair<std::string, std::string>>& columns)
      const;

  // ---- Persistence -------------------------------------------------------

  // Loads .lsd text (facts, rules, @class marks) into this database.
  Status LoadText(std::string_view text);
  Status LoadTextFile(const std::string& path);

  // Snapshot + WAL durability. Save() checkpoints: it atomically
  // publishes <prefix>.snap stamped with the next checkpoint generation,
  // swaps the WAL to a fresh same-generation segment, and drops the old
  // segments. Open() loads <prefix>.snap (if present), replays the
  // <prefix>.wal.NNNNNN segments (salvaging any torn/corrupt suffix),
  // and attaches the WAL so subsequent mutations are logged; what
  // recovery found is available via last_recovery(). Known limitation:
  // operator definitions (Sec 6.1) are not persisted — keep them in a
  // .lsd file loaded at startup.
  Status Save(const std::string& path_prefix);
  Status Open(const std::string& path_prefix);

  // Open() minus the WAL attachment: loads the snapshot and replays the
  // segments (salvaging damage, reporting via last_recovery()) but does
  // NOT claim the append point. For callers that own the log themselves
  // — SharedStore's group-commit leader recovers its bootstrap epoch
  // this way and then opens the Wal directly (see server/shared_store.h).
  Status Recover(const std::string& path_prefix);

  // Group-commit capture: while `sink` is non-null, every WAL-shaped
  // mutation record (assert/retract/rule/include/exclude) is pushed
  // onto `sink` instead of the attached log. The serving layer sets a
  // sink on commit clones, then batch-appends the whole commit group's
  // records to its own WAL under one fsync. Callers must clear the sink
  // (set nullptr) before the vector goes out of scope.
  void set_mutation_capture(std::vector<WalRecord>* sink) {
    capture_ = sink;
  }

  // Save() to the prefix this database was Open()ed or last Save()d at.
  // Also triggered automatically by options_.checkpoint_bytes.
  Status Checkpoint();

  // What the last Open() had to do to recover (zeroed if this database
  // was never Open()ed).
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // The attached log's counters (append/batch/fsync tallies for the
  // shell's `stats`); check wal().is_open() before reading the rest.
  const Wal& wal() const { return wal_; }

  // The first WAL append error since the log was attached, if any.
  // Assert/Retract report success against the in-memory store even if
  // logging fails (the paper's API predates durability); this surfaces
  // the dropped durability so shells and servers can warn.
  const Status& wal_status() const { return wal_error_; }

  // Governs the lazy closure recompute inside View(): while set, a
  // rebuild runs under `budget` and a trip makes View() fail with the
  // budget's typed error (the stale closure cache is left untouched and
  // the next View() simply retries). ONLY safe on a database owned by a
  // single thread — the serving layer sets it on session-private overlay
  // clones, never on shared epochs (whose closures are Warm()ed before
  // publish and thus never recompute under readers).
  void set_read_budget(const QueryBudget* budget) { read_budget_ = budget; }
  const QueryBudget* read_budget() const { return read_budget_; }

 private:
  EntityId MustLookup(std::string_view name, Status* status) const;
  Status LogAssert(const Fact& f);
  Status LogRetract(const Fact& f);
  Status LogRule(const Rule& rule);
  Status MaybeAutoCheckpoint();

  LooseDbOptions options_;
  FactStore store_;
  DefinitionRegistry definitions_;
  std::vector<Rule> rules_;
  uint64_t rules_version_ = 0;
  int composition_limit_;

  MathProvider math_;
  RuleEngine engine_;
  std::vector<WalRecord>* capture_ = nullptr;  // group-commit redirect
  Wal wal_;
  std::string wal_path_;
  std::string save_prefix_;       // where Open/Save attached durability
  Status wal_error_;              // first append failure, if any
  RecoveryStats last_recovery_;
  bool in_checkpoint_ = false;    // re-entrancy guard for auto-checkpoint
  const QueryBudget* read_budget_ = nullptr;  // governs View() rebuilds

  // Closure cache, keyed by (store version, rules version).
  mutable std::unique_ptr<Closure> closure_;
  mutable uint64_t closure_store_version_ = 0;
  mutable uint64_t closure_rules_version_ = 0;

  // The fact mutations since the cached closure was fixed, in order:
  // every fact Assert/AssertRun added (true) or Retract/RetractRun
  // removed (false). View() nets them into added and removed runs and
  // maintains the cached closure with exactly those
  // (RuleEngine::ExtendClosure) instead of recomputing, provided the
  // version arithmetic proves the list is complete: every store-version
  // bump since the closure was keyed must correspond to one event
  // (mutations that bypass the list — LoadText, Recover,
  // MarkClassRelationship — bump the version without growing it and thus
  // force the full recompute). Recorded only while a closure is cached.
  mutable std::vector<std::pair<Fact, bool>> closure_delta_;
  // Bumped by InstallCompactedTiers (storage layout changed with no
  // logical change); copied by CloneInto.
  uint64_t storage_generation_ = 0;

  // Generalization lattice cache, keyed the same way. Rebuilding the
  // lattice is a full closure scan, and probing needs it on every call.
  mutable std::unique_ptr<GeneralizationLattice> lattice_;
  mutable uint64_t lattice_store_version_ = 0;
  mutable uint64_t lattice_rules_version_ = 0;

  // Query-plan cache shared by Run/Probe, valid for one closure
  // snapshot (same keying). Internally synchronized.
  mutable PlannerCache planner_;
  mutable uint64_t planner_store_version_ = 0;
  mutable uint64_t planner_rules_version_ = 0;

  StatusOr<const GeneralizationLattice*> Lattice() const;
  // The plan cache for the current (store, rules) snapshot, cleared on
  // version mismatch.
  PlannerCache* Planner() const;
  // Records an Assert/Retract for closure maintenance (closure_delta_).
  void RecordChange(const Fact& f, bool added);
};

}  // namespace lsd

#endif  // LSD_CORE_LOOSE_DB_H_
