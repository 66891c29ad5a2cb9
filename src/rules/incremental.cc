#include "rules/incremental.h"

#include "rules/matcher.h"

namespace lsd {

namespace {

bool IsVirtualAtom(const Template& t) {
  return t.relationship.is_entity() &&
         MathProvider::IsComparator(t.relationship.entity());
}

}  // namespace

IncrementalClosure::IncrementalClosure(const FactStore* store,
                                       const MathProvider* math,
                                       std::vector<Rule> rules)
    : store_(store), math_(math), rules_(std::move(rules)) {
  view_ = std::make_unique<ClosureView>(store_, &derived_source_, math_);
}

Status IncrementalClosure::Initialize() {
  derived_.Clear();
  // Seed the continuation with every asserted fact.
  TripleIndex delta;
  store_->base().ForEach(Pattern(), [&](const Fact& f) {
    delta.Insert(f);
    return true;
  });
  return Propagate(std::move(delta));
}

Status IncrementalClosure::Propagate(TripleIndex delta) {
  IndexSource delta_source(&delta);
  IndexSource derived_source(&derived_);
  UnionSource full({&store_->base(), &derived_source, math_});

  while (!delta.empty()) {
    TripleIndex next;
    for (const Rule& rule : rules_) {
      if (!rule.enabled) continue;
      auto filter = [this, &rule](VarId v, EntityId e) {
        switch (rule.var_constraints[v]) {
          case VarConstraint::kIndividualRelationship:
            return !store_->IsClassRelationship(e);
          case VarConstraint::kClassRelationship:
            return store_->IsClassRelationship(e);
          case VarConstraint::kNone:
            return true;
        }
        return true;
      };
      auto derive = [&](const Binding& binding) {
        for (const Template& head : rule.head) {
          ++stats_.rule_applications;
          Fact f = head.Substitute(binding);
          if (MathProvider::IsComparator(f.relationship) &&
              math_->Holds(f)) {
            continue;
          }
          if (store_->Contains(f) || derived_.Contains(f)) continue;
          next.Insert(f);
        }
        return true;
      };
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (IsVirtualAtom(rule.body[i])) continue;
        std::vector<AtomSpec> specs;
        specs.reserve(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          specs.push_back(AtomSpec{
              rule.body[j],
              j == i ? static_cast<const FactSource*>(&delta_source)
                     : &full});
        }
        Binding binding(rule.num_vars());
        // Delta-pinned closure joins stay on the dynamic bound-count
        // pick: bodies are 1-2 atoms, so a planner pass per delta fact
        // would cost more than it saves.
        LSD_RETURN_IF_ERROR(MatchConjunction(std::move(specs), binding,
                                             filter, derive,
                                             JoinOrder::kBoundCount));
      }
    }
    if (next.empty()) break;
    for (const Fact& f : next.Match(Pattern())) {
      derived_.Insert(f);
      ++stats_.assert_derivations;
    }
    delta = std::move(next);
  }
  return Status::OK();
}

Status IncrementalClosure::OnAssert(const Fact& f) {
  if (!store_->Contains(f)) {
    return Status::FailedPrecondition(
        "OnAssert: fact is not in the base store");
  }
  if (derived_.Contains(f)) {
    // Already a consequence; it merely moved layers (base and derived
    // are kept disjoint). All its consequences are present.
    derived_.Erase(f);
    return Status::OK();
  }
  TripleIndex delta;
  delta.Insert(f);
  return Propagate(std::move(delta));
}

StatusOr<bool> IncrementalClosure::Derivable(const Fact& f) const {
  if (store_->Contains(f)) return true;
  IndexSource derived_source(&derived_);
  UnionSource full({&store_->base(), &derived_source, math_});
  for (const Rule& rule : rules_) {
    if (!rule.enabled) continue;
    auto filter = [this, &rule](VarId v, EntityId e) {
      switch (rule.var_constraints[v]) {
        case VarConstraint::kIndividualRelationship:
          return !store_->IsClassRelationship(e);
        case VarConstraint::kClassRelationship:
          return store_->IsClassRelationship(e);
        case VarConstraint::kNone:
          return true;
      }
      return true;
    };
    for (const Template& head : rule.head) {
      Binding binding(rule.num_vars());
      if (!head.Unify(f, binding)) continue;
      bool found = false;
      Status s = MatchConjunction(
          full, rule.body, binding, filter,
          [&](const Binding&) {
            found = true;
            return false;  // one proof suffices
          },
          JoinOrder::kBoundCount);
      LSD_RETURN_IF_ERROR(s);
      if (found) return true;
    }
  }
  return false;
}

Status IncrementalClosure::OnRetract(const Fact& f) {
  if (store_->Contains(f)) {
    return Status::FailedPrecondition(
        "OnRetract: fact is still in the base store");
  }
  // Phase 1 (DRed overestimate): delete every derived fact reachable
  // through a rule application that used a deleted fact.
  TripleIndex deleted;
  deleted.Insert(f);
  TripleIndex delta_del;
  delta_del.Insert(f);

  IndexSource deleted_source(&deleted);
  IndexSource delta_source(&delta_del);
  IndexSource derived_source(&derived_);
  // Bodies are evaluated against the pre-deletion state: current layers
  // plus everything deleted so far.
  UnionSource pre_state(
      {&store_->base(), &derived_source, &deleted_source, math_});

  while (!delta_del.empty()) {
    TripleIndex next_del;
    for (const Rule& rule : rules_) {
      if (!rule.enabled) continue;
      auto filter = [this, &rule](VarId v, EntityId e) {
        switch (rule.var_constraints[v]) {
          case VarConstraint::kIndividualRelationship:
            return !store_->IsClassRelationship(e);
          case VarConstraint::kClassRelationship:
            return store_->IsClassRelationship(e);
          case VarConstraint::kNone:
            return true;
        }
        return true;
      };
      // Heads are buffered: applying the deletion while the matcher is
      // iterating derived_/deleted would invalidate its iterators.
      std::vector<Fact> buffered;
      auto overestimate = [&](const Binding& binding) {
        for (const Template& head : rule.head) {
          ++stats_.rule_applications;
          buffered.push_back(head.Substitute(binding));
        }
        return true;
      };
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (IsVirtualAtom(rule.body[i])) continue;
        std::vector<AtomSpec> specs;
        specs.reserve(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          specs.push_back(AtomSpec{
              rule.body[j],
              j == i ? static_cast<const FactSource*>(&delta_source)
                     : &pre_state});
        }
        Binding binding(rule.num_vars());
        buffered.clear();
        LSD_RETURN_IF_ERROR(MatchConjunction(std::move(specs), binding,
                                             filter, overestimate,
                                             JoinOrder::kBoundCount));
        for (const Fact& h : buffered) {
          if (!derived_.Contains(h)) continue;
          derived_.Erase(h);
          deleted.Insert(h);
          next_del.Insert(h);
          ++stats_.retract_deleted;
        }
      }
    }
    delta_del = std::move(next_del);
  }

  // Phase 2 (rederive): put back deleted facts that still have a
  // derivation from the surviving closure, to fixpoint. The retracted
  // base fact itself may be rederivable as a derived fact.
  std::vector<Fact> candidates = deleted.Match(Pattern());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fact& d : candidates) {
      if (derived_.Contains(d)) continue;
      LSD_ASSIGN_OR_RETURN(bool ok, Derivable(d));
      if (ok) {
        derived_.Insert(d);
        ++stats_.retract_rederived;
        changed = true;
      }
    }
  }
  return Status::OK();
}

}  // namespace lsd
