#include "store/fact_store.h"

#include <algorithm>
#include <utility>

namespace lsd {

bool FactStore::Assert(const Fact& f) {
  bool inserted = facts_.Insert(f);
  if (inserted) ++version_;
  return inserted;
}

size_t FactStore::AssertRun(std::vector<Fact> facts,
                            std::vector<Fact>* added) {
  std::sort(facts.begin(), facts.end(), OrderSrt());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  const size_t n = facts_.InsertRun(facts, added);
  version_ += n;
  return n;
}

Fact FactStore::Assert(std::string_view source,
                       std::string_view relationship,
                       std::string_view target) {
  Fact f(entities_.Intern(source), entities_.Intern(relationship),
         entities_.Intern(target));
  Assert(f);
  return f;
}

bool FactStore::Retract(const Fact& f) {
  bool erased = facts_.Erase(f);
  if (erased) ++version_;
  return erased;
}

size_t FactStore::RetractRun(std::vector<Fact> facts,
                             std::vector<Fact>* removed) {
  std::sort(facts.begin(), facts.end(), OrderSrt());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  const size_t n = facts_.EraseRun(facts, removed);
  version_ += n;
  return n;
}

Status FactStore::CloneInto(FactStore* out) const {
  if (out->size() != 0 || out->entities_.size() != kNumBuiltinEntities) {
    return Status::FailedPrecondition(
        "FactStore::CloneInto requires an empty store");
  }
  // Entities, in id order, so every id means the same thing in the clone
  // (the same trick LoadSnapshot uses).
  EntityTable& dst = out->entities_;
  for (EntityId id = kNumBuiltinEntities; id < entities_.size(); ++id) {
    EntityId copied = entities_.Kind(id) == EntityKind::kComposed
                          ? dst.InternComposed(entities_.Name(id))
                          : dst.Intern(entities_.Name(id));
    if (copied != id) {
      return Status::Internal("entity id mismatch while cloning: " +
                              entities_.Name(id));
    }
  }
  out->facts_ = facts_.Clone();
  // The full mutation clock (inserts + retracts): a clone that restarted
  // it could land an assert-after-retract back on this store's number
  // and be mistaken for a no-op by the commit path.
  out->version_ = version_;
  return Status::OK();
}

bool FactStore::IsClassRelationship(EntityId r) const {
  // Sec 2.2-2.3: membership is a class relationship, generalization is
  // individual. The meta-relationships SYN/INV/CONTRA characterize the
  // related entities as wholes — they are not inherited by instances or
  // specializations — so they are class relationships too (otherwise
  // rule (1a) would derive nonsense like (BONUS, SYN, WAGE) from
  // (SALARY, SYN, WAGE) and (BONUS, ISA, SALARY)).
  switch (r) {
    case kEntIn:
    case kEntSyn:
    case kEntInv:
    case kEntContra:
      return true;
    case kEntIsa:
      return false;
    default:
      return facts_.Contains(Fact(r, kEntIn, kEntClassRel));
  }
}

void FactStore::MarkClassRelationship(EntityId r) {
  Assert(Fact(r, kEntIn, kEntClassRel));
}

}  // namespace lsd
