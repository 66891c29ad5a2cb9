// E10: closure maintenance (Sec 6.2 "update of data") vs full
// recomputation, for point updates against organizations of growing
// size.
//
// The maintained path is the served one: LooseDb::Assert/Retract
// followed by View(), which folds the change into the cached closure
// (RuleEngine::ExtendClosure — semi-naive extension for the assert,
// delete-and-rederive for the retract). The baseline forces a full
// recompute of the same store after the same update.
//
// Expected shape: full recomputation cost grows with store size;
// maintained assert+retract pairs cost time proportional to the
// consequences of the single fact plus the copy-on-write rebuild of the
// derived segments they touch.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/loose_db.h"
#include "workload/org_domain.h"

namespace {

lsd::LooseDb* BuildWorld(int employees) {
  static auto* cache = new std::map<int, std::unique_ptr<lsd::LooseDb>>();
  auto it = cache->find(employees);
  if (it != cache->end()) return it->second.get();
  auto db = std::make_unique<lsd::LooseDb>();
  lsd::workload::OrgOptions options;
  options.num_employees = employees;
  options.salary_integrity_rule = false;
  lsd::workload::BuildOrgDomain(db.get(), options);
  lsd::LooseDb* out = db.get();
  (*cache)[employees] = std::move(db);
  return out;
}

lsd::Fact NamedFact(lsd::LooseDb* db, const char* s, const char* r,
                    const char* t) {
  lsd::EntityTable& e = db->entities();
  return lsd::Fact(e.Intern(s), e.Intern(r), e.Intern(t));
}

bool Settle(lsd::LooseDb* db, benchmark::State& state) {
  auto view = db->View();
  if (!view.ok()) state.SkipWithError(view.status().ToString().c_str());
  return view.ok();
}

void BM_FullRecomputeAfterUpdate(benchmark::State& state) {
  lsd::LooseDb* db = BuildWorld(static_cast<int>(state.range(0)));
  lsd::Fact f = NamedFact(db, "EMP-0", "MENTORS", "EMP-1");
  if (!Settle(db, state)) return;
  lsd::MathProvider math(&db->entities());
  lsd::RuleEngine engine(&db->store(), &math);
  size_t derived = 0;
  for (auto _ : state) {
    db->Assert(f);
    auto closure = engine.ComputeClosure(db->rules());
    if (!closure.ok()) {
      state.SkipWithError(closure.status().ToString().c_str());
      return;
    }
    derived = (*closure)->stats().derived_facts;
    db->Retract(f);
  }
  // Leave the cached closure current for the maintained benchmarks.
  if (!Settle(db, state)) return;
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["base_facts"] = static_cast<double>(db->store().size());
}

void BM_IncrementalUpdatePair(benchmark::State& state) {
  lsd::LooseDb* db = BuildWorld(static_cast<int>(state.range(0)));
  lsd::Fact f = NamedFact(db, "EMP-0", "MENTORS", "EMP-1");
  if (!Settle(db, state)) return;
  const size_t recomputes = db->closure_stats()->full_recomputes;
  for (auto _ : state) {
    db->Assert(f);
    auto s1 = db->View();
    db->Retract(f);
    auto s2 = db->View();
    if (!s1.ok() || !s2.ok()) {
      state.SkipWithError("closure maintenance failed");
      return;
    }
  }
  if (db->closure_stats()->full_recomputes != recomputes) {
    state.SkipWithError("an update recomputed the closure");
    return;
  }
  state.counters["base_facts"] = static_cast<double>(db->store().size());
  state.counters["derived"] =
      static_cast<double>(db->closure_stats()->derived_facts);
}

// A heavier update: retracting a membership fact tears down and partly
// rebuilds the employee's derived facts (both delete-and-rederive
// phases), and the re-assert derives them again.
void BM_IncrementalMembershipChurn(benchmark::State& state) {
  lsd::LooseDb* db = BuildWorld(static_cast<int>(state.range(0)));
  lsd::Fact f = NamedFact(db, "EMP-0", "IN", "EMPLOYEE");
  if (!Settle(db, state)) return;
  for (auto _ : state) {
    db->Retract(f);
    auto s1 = db->View();
    db->Assert(f);
    auto s2 = db->View();
    if (!s1.ok() || !s2.ok()) {
      state.SkipWithError("closure maintenance failed");
      return;
    }
  }
  state.counters["base_facts"] = static_cast<double>(db->store().size());
}

}  // namespace

#define LSD_E10_SIZES ->Arg(100)->Arg(400)->Arg(1600)

BENCHMARK(BM_FullRecomputeAfterUpdate)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalUpdatePair)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalMembershipChurn)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
