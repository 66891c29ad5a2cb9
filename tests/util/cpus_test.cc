// UsableCpus counts the CPUs of the affinity mask, not the machine, and
// the closure's default worker fan-out follows it. Both tests narrow
// this process's own mask and restore it afterwards.
#include "util/cpus.h"

#include <sched.h>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "rules/math_provider.h"
#include "rules/rule_engine.h"
#include "workload/random_graph.h"

namespace lsd {
namespace {

// Pins the calling thread to the first `n` CPUs of its current mask for
// the lifetime of the object.
class NarrowedAffinity {
 public:
  explicit NarrowedAffinity(int n) {
    CPU_ZERO(&saved_);
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!ok_) return;
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &narrow);
        ++taken;
      }
    }
    ok_ = sched_setaffinity(0, sizeof(narrow), &narrow) == 0;
  }
  ~NarrowedAffinity() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

int MaskSize() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 0;
  return CPU_COUNT(&mask);
}

TEST(UsableCpusTest, CountsTheAffinityMask) {
  const int available = MaskSize();
  ASSERT_GT(available, 0);
  EXPECT_EQ(UsableCpus(), static_cast<unsigned>(available));
  {
    NarrowedAffinity one(1);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(UsableCpus(), 1u);
  }
  if (available >= 2) {
    NarrowedAffinity two(2);
    ASSERT_TRUE(two.ok());
    EXPECT_EQ(UsableCpus(), 2u);
  }
  EXPECT_EQ(UsableCpus(), static_cast<unsigned>(available));
}

TEST(UsableCpusTest, ClosureDefaultFanOutFollowsTheMask) {
  // A taxonomy whose first semi-naive round is large enough for every
  // CPU of the narrowed mask to get a worker.
  LooseDb db;
  workload::TaxonomyOptions tax;
  tax.depth = 5;
  tax.fanout = 4;
  (void)workload::BuildRandomTaxonomy(&db, tax);
  MathProvider math(&db.store().entities());
  RuleEngine engine(&db.store(), &math);

  auto workers_under = [&](int cpus) -> size_t {
    NarrowedAffinity narrowed(cpus);
    EXPECT_TRUE(narrowed.ok());
    ClosureOptions options;  // num_threads = 0: one per usable CPU
    auto closure = engine.ComputeClosure(db.rules(), options);
    EXPECT_TRUE(closure.ok()) << closure.status().ToString();
    return closure.ok() ? (*closure)->stats().workers : 0;
  };
  EXPECT_EQ(workers_under(1), 1u);
  if (MaskSize() >= 2) {
    EXPECT_EQ(workers_under(2), 2u);
  }
}

}  // namespace
}  // namespace lsd
