#include "browse/probing.h"

#include <algorithm>
#include <deque>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "util/cpus.h"

namespace lsd {

namespace {

bool EligibleLatticeEntity(const EntityTable& entities, EntityId e) {
  return entities.Kind(e) == EntityKind::kRegular;
}

// Below this many wave candidates per worker the probes stay on the
// calling thread: spawning would cost more than the evaluation work it
// distributes.
constexpr size_t kMinQueriesPerWorker = 4;

}  // namespace

GeneralizationLattice GeneralizationLattice::Build(const ClosureView& view) {
  GeneralizationLattice lattice;
  const EntityTable& entities = view.store().entities();
  lattice.num_entities_ = entities.size();
  lattice.nodes_.resize(entities.size());
  lattice.known_.assign(entities.size(), false);

  // up[s] = strict non-synonym generalizations of s in the closure.
  // The closure's ISA relation is already transitively closed (the
  // generalization rules derive transitivity), so the stored targets of
  // s are its full up-set.
  std::unordered_map<EntityId, std::set<EntityId>> up;
  view.ForEach(Pattern(), [&](const Fact& f) {
    lattice.known_[f.source] = true;
    lattice.known_[f.relationship] = true;
    lattice.known_[f.target] = true;
    if (f.relationship != kEntIsa) return true;
    if (f.source == f.target) return true;
    if (!EligibleLatticeEntity(entities, f.source) ||
        !EligibleLatticeEntity(entities, f.target)) {
      return true;
    }
    up[f.source].insert(f.target);
    return true;
  });

  auto strictly_above = [&](EntityId lo, EntityId hi) {
    // lo ≺ hi and not hi ≺ lo (synonyms are not above each other).
    auto it = up.find(lo);
    if (it == up.end() || !it->second.count(hi)) return false;
    auto rit = up.find(hi);
    return rit == up.end() || !rit->second.count(lo);
  };

  for (const auto& [s, targets] : up) {
    for (EntityId t : targets) {
      if (!strictly_above(s, t)) continue;  // skip synonym edges
      // t covers s unless some x sits strictly between them.
      bool covered = false;
      for (EntityId x : targets) {
        if (x == t || x == s) continue;
        if (strictly_above(s, x) && strictly_above(x, t)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        lattice.nodes_[s].parents.push_back(t);
        lattice.nodes_[t].children.push_back(s);
      }
    }
  }
  for (Node& n : lattice.nodes_) {
    std::sort(n.parents.begin(), n.parents.end());
    std::sort(n.children.begin(), n.children.end());
  }
  return lattice;
}

std::vector<EntityId> GeneralizationLattice::MinimalGeneralizations(
    EntityId e) const {
  if (e == kEntTop) return {};
  if (e == kEntBottom) return {kEntTop};  // degenerate but total
  if (e >= nodes_.size()) return {kEntTop};
  if (e < kNumBuiltinEntities) return {};  // builtins do not generalize
  if (!nodes_[e].parents.empty()) return nodes_[e].parents;
  return {kEntTop};
}

std::vector<EntityId> GeneralizationLattice::MinimalSpecializations(
    EntityId e) const {
  if (e == kEntBottom) return {};
  if (e == kEntTop) return {kEntBottom};
  if (e >= nodes_.size()) return {kEntBottom};
  if (e < kNumBuiltinEntities) return {};
  if (!nodes_[e].children.empty()) return nodes_[e].children;
  return {kEntBottom};
}

bool GeneralizationLattice::IsKnown(EntityId e) const {
  return e < known_.size() && known_[e];
}

std::string Substitution::Describe(const EntityTable& entities) const {
  switch (kind) {
    case Kind::kGeneralize:
    case Kind::kSpecialize:
      return entities.Name(to) + " instead of " + entities.Name(from);
    case Kind::kDeleteTemplate:
      return "without " + deleted_text;
  }
  return "?";
}

namespace {

// True if a term no longer constrains anything: a variable, ANY or NONE.
bool WeakTerm(const Term& t) {
  return t.is_variable() || t.entity() == kEntTop ||
         t.entity() == kEntBottom;
}

bool FullyWeak(const Template& t) {
  return WeakTerm(t.source) && WeakTerm(t.relationship) &&
         WeakTerm(t.target);
}

// Walks all atoms of the AST, visiting (parent-and, index, atom node).
void VisitAtoms(AstNode* node, AstNode* parent_and,
                const std::function<void(AstNode*, AstNode*)>& fn) {
  switch (node->kind) {
    case NodeKind::kAtom:
      fn(node, parent_and);
      break;
    case NodeKind::kAnd:
      for (auto& c : node->children) VisitAtoms(c.get(), node, fn);
      break;
    case NodeKind::kOr:
      for (auto& c : node->children) VisitAtoms(c.get(), nullptr, fn);
      break;
    case NodeKind::kExists:
    case NodeKind::kForall:
      VisitAtoms(node->children[0].get(),
                 node->children[0]->kind == NodeKind::kAnd
                     ? node->children[0].get()
                     : nullptr,
                 fn);
      break;
  }
}

}  // namespace

std::vector<std::pair<Query, Substitution>> Prober::RetractionSet(
    const Query& query) const {
  std::vector<std::pair<Query, Substitution>> out;

  // Enumerate atom occurrences by walking a clone for each candidate
  // substitution: position `occurrence` within the walk identifies the
  // atom stably across clones.
  struct Site {
    int occurrence;
    int position;  // 0 source, 1 relationship, 2 target
    EntityId from;
    EntityId to;
    Substitution::Kind kind;
  };
  struct DeleteSite {
    int occurrence;
    std::string text;
  };
  std::vector<Site> sites;
  std::vector<DeleteSite> deletions;

  int occurrence = 0;
  VisitAtoms(
      const_cast<AstNode*>(query.root()), nullptr,
      [&](AstNode* atom, AstNode* parent_and) {
        const Template& t = atom->atom;
        if (FullyWeak(t)) {
          // Sec 5.2: templates of variables/ANY/NONE only are weak
          // restrictions — generalize by deleting them (only meaningful
          // inside a conjunction with other conjuncts).
          if (parent_and != nullptr && parent_and->children.size() > 1) {
            deletions.push_back(DeleteSite{
                occurrence, t.DebugString(*entities_, query.var_names())});
          }
        } else {
          for (int pos = 0; pos < 3; ++pos) {
            const Term& term = t.at(pos);
            if (!term.is_entity()) continue;
            EntityId e = term.entity();
            if (pos == 0) {
              for (EntityId to : lattice_->MinimalSpecializations(e)) {
                sites.push_back(Site{occurrence, pos, e, to,
                                     Substitution::Kind::kSpecialize});
              }
            } else {
              for (EntityId to : lattice_->MinimalGeneralizations(e)) {
                sites.push_back(Site{occurrence, pos, e, to,
                                     Substitution::Kind::kGeneralize});
              }
            }
          }
        }
        ++occurrence;
      });

  for (const Site& site : sites) {
    Query clone = query.Clone();
    int idx = 0;
    VisitAtoms(clone.mutable_root(), nullptr,
               [&](AstNode* atom, AstNode*) {
                 if (idx == site.occurrence) {
                   atom->atom.at(site.position) = Term::Entity(site.to);
                 }
                 ++idx;
               });
    Substitution sub;
    sub.kind = site.kind;
    sub.from = site.from;
    sub.to = site.to;
    out.emplace_back(std::move(clone), sub);
  }

  for (const DeleteSite& del : deletions) {
    Query clone = query.Clone();
    int idx = 0;
    AstNode* to_delete = nullptr;
    AstNode* parent = nullptr;
    VisitAtoms(clone.mutable_root(), nullptr,
               [&](AstNode* atom, AstNode* parent_and) {
                 if (idx == del.occurrence) {
                   to_delete = atom;
                   parent = parent_and;
                 }
                 ++idx;
               });
    if (to_delete == nullptr || parent == nullptr) continue;
    auto& kids = parent->children;
    kids.erase(std::remove_if(kids.begin(), kids.end(),
                              [&](const std::unique_ptr<AstNode>& c) {
                                return c.get() == to_delete;
                              }),
               kids.end());
    Substitution sub;
    sub.kind = Substitution::Kind::kDeleteTemplate;
    sub.deleted_text = del.text;
    out.emplace_back(std::move(clone), sub);
  }
  return out;
}

StatusOr<ProbeResult> Prober::Probe(const Query& query,
                                    const ProbeOptions& options) const {
  ProbeResult result;
  Evaluator evaluator(view_, entities_);
  EvalOptions eval_options;
  eval_options.max_rows = options.max_rows_per_result;
  eval_options.join_order = options.join_order;
  eval_options.planner = planner_;
  eval_options.budget = options.budget;

  // Diagnosis: constants of the original query unknown to the database.
  std::set<EntityId> unknown;
  VisitAtoms(const_cast<AstNode*>(query.root()), nullptr,
             [&](AstNode* atom, AstNode*) {
               for (int pos = 0; pos < 3; ++pos) {
                 const Term& t = atom->atom.at(pos);
                 if (t.is_entity() && t.entity() >= kNumBuiltinEntities &&
                     !lattice_->IsKnown(t.entity())) {
                   unknown.insert(t.entity());
                 }
               }
             });
  result.unknown_entities.assign(unknown.begin(), unknown.end());

  LSD_ASSIGN_OR_RETURN(result.original_result,
                       evaluator.Evaluate(query, eval_options));
  if (result.original_result.Success()) {
    result.original_succeeded = true;
    return result;
  }

  struct Candidate {
    Query query;
    std::vector<Substitution> path;
  };
  std::vector<Candidate> frontier;
  {
    Candidate original;
    original.query = query.Clone();
    frontier.push_back(std::move(original));
  }
  std::unordered_set<std::string> visited;
  visited.insert(query.DebugString(*entities_));

  for (int wave = 1; wave <= options.max_waves; ++wave) {
    std::vector<Candidate> next;
    for (const Candidate& c : frontier) {
      for (auto& [q, sub] : RetractionSet(c.query)) {
        std::string key = q.DebugString(*entities_);
        if (!visited.insert(key).second) continue;
        Candidate nc;
        nc.query = std::move(q);
        nc.path = c.path;
        nc.path.push_back(sub);
        next.push_back(std::move(nc));
      }
    }
    if (next.empty()) {
      result.exhausted = true;
      break;
    }
    result.waves = wave;
    const size_t allowed = std::min(
        next.size(), options.max_queries - result.queries_attempted);
    result.queries_attempted += allowed;

    // Existence probes first: a candidate only needs a yes/no here, so
    // the evaluation stops at the first satisfying row (first_row_only
    // short-circuits inside the join). Candidates are independent
    // read-only evaluations over an immutable snapshot, so a wave is
    // probed in parallel with the same discipline as the rule engine's
    // closure rounds; the flags are merged in candidate order below, so
    // the menu is identical at any thread count.
    std::vector<char> succeeded(allowed, 0);
    EvalOptions probe_options = eval_options;
    probe_options.first_row_only = true;
    probe_options.max_rows = 1;
    auto probe_range = [&](size_t begin, size_t count) {
      for (size_t i = begin; i < begin + count; ++i) {
        // A tripped budget sticks on the shared token; stop burning
        // candidates (the wave-boundary Check below surfaces the error).
        if (options.budget != nullptr && options.budget->cancelled()) break;
        auto evaluated = evaluator.Evaluate(next[i].query, probe_options);
        // Unsafe variants are skipped.
        succeeded[i] = evaluated.ok() && evaluated->Success() ? 1 : 0;
      }
    };
    const size_t num_threads =
        options.num_threads == 0 ? UsableCpus() : options.num_threads;
    const size_t workers = std::max<size_t>(
        1, std::min(num_threads, allowed / kMinQueriesPerWorker));
    if (workers == 1) {
      probe_range(0, allowed);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers - 1);
      const size_t chunk = (allowed + workers - 1) / workers;
      for (size_t w = 1; w < workers; ++w) {
        const size_t begin = std::min(allowed, w * chunk);
        const size_t count = std::min(allowed - begin, chunk);
        threads.emplace_back(
            [&probe_range, begin, count] { probe_range(begin, count); });
      }
      probe_range(0, std::min(allowed, chunk));
      for (std::thread& t : threads) t.join();
    }

    // Wave boundary: surface a budget trip as the probe's own error —
    // the per-candidate evaluations above swallow eval failures (unsafe
    // variants are skipped), which must not hide a cancellation.
    if (options.budget != nullptr) {
      LSD_RETURN_IF_ERROR(options.budget->Check());
    }

    // Materialize full results only for the successes (typically a
    // handful per wave), sequentially and in candidate order.
    for (size_t i = 0; i < allowed; ++i) {
      if (!succeeded[i]) continue;
      auto evaluated = evaluator.Evaluate(next[i].query, eval_options);
      if (!evaluated.ok() && (evaluated.status().IsDeadlineExceeded() ||
                              evaluated.status().IsCancelled() ||
                              evaluated.status().IsResourceExhausted())) {
        return evaluated.status();
      }
      if (!evaluated.ok() || !evaluated->Success()) continue;
      ProbeSuccess s;
      s.query = next[i].query.Clone();
      s.substitutions = next[i].path;
      s.result = std::move(*evaluated);
      result.successes.push_back(std::move(s));
    }
    if (!result.successes.empty()) break;
    if (result.queries_attempted >= options.max_queries) break;
    frontier = std::move(next);
  }
  return result;
}

std::string ProbeResult::Menu(const EntityTable& entities) const {
  if (original_succeeded) {
    return "Query succeeded.\n";
  }
  std::string out = "Query failed. Retrying...\n";
  if (!unknown_entities.empty()) {
    out += "Note: no such database entities:";
    for (EntityId e : unknown_entities) {
      out += " " + entities.Name(e);
    }
    out += "\n";
  }
  if (successes.empty()) {
    out += exhausted ? "No broader query succeeds.\n"
                     : "No success within the retraction budget.\n";
    return out;
  }
  for (size_t i = 0; i < successes.size(); ++i) {
    out += std::to_string(i + 1) + ". Success with ";
    std::vector<std::string> descs;
    for (const Substitution& s : successes[i].substitutions) {
      descs.push_back(s.Describe(entities));
    }
    for (size_t j = 0; j < descs.size(); ++j) {
      if (j > 0) out += " and ";
      out += descs[j];
    }
    out += "\n";
  }
  out += "You may select.\n";
  return out;
}

}  // namespace lsd
