// Randomized equivalence tests for the parallel semi-naive closure: for
// random taxonomy workloads (trees and DAGs), the derived fact set must
// be bit-identical for every thread count (segment by segment, with the
// same round and candidate accounting), and must match the naive
// strategy's fixpoint (the semantic anchor).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "rules/math_provider.h"
#include "rules/rule_engine.h"
#include "workload/random_graph.h"

namespace lsd {
namespace {

struct WorkloadParams {
  int depth;
  int fanout;
  double extra_parent_prob;
  uint64_t seed;
};

std::string ParamName(
    const ::testing::TestParamInfo<WorkloadParams>& info) {
  const WorkloadParams& p = info.param;
  return "d" + std::to_string(p.depth) + "f" + std::to_string(p.fanout) +
         (p.extra_parent_prob > 0 ? "dag" : "tree") + "s" +
         std::to_string(p.seed);
}

// The derived tier segment by segment, overlay last: every round
// installs the same sorted run whatever the thread count, so the tier's
// layout must match too, not just its fact set.
std::vector<std::vector<Fact>> DerivedTiers(const Closure& closure) {
  std::vector<std::vector<Fact>> tiers;
  for (const auto& segment : closure.derived().segments()) {
    tiers.push_back(segment->Materialize());
  }
  std::vector<Fact> overlay = closure.derived().overlay().Match(Pattern());
  std::sort(overlay.begin(), overlay.end(), OrderSrt());
  tiers.push_back(std::move(overlay));
  return tiers;
}

std::vector<Fact> AllDerived(const Closure& closure) {
  std::vector<Fact> out = closure.derived().Match(Pattern());
  std::sort(out.begin(), out.end(), OrderSrt());
  return out;
}

class ParallelClosureTest : public ::testing::TestWithParam<WorkloadParams> {
 protected:
  // Builds the same workload shape as bench_closure: a random taxonomy
  // with members on the leaves plus a class-level fact, so the
  // generalization/membership rules derive real work.
  void BuildWorkload() {
    const WorkloadParams& p = GetParam();
    workload::TaxonomyOptions tax;
    tax.depth = p.depth;
    tax.fanout = p.fanout;
    tax.extra_parent_prob = p.extra_parent_prob;
    tax.seed = p.seed;
    auto taxonomy = workload::BuildRandomTaxonomy(&db_, tax);
    for (size_t i = 0; i < taxonomy.levels.back().size(); ++i) {
      db_.Assert("M" + std::to_string(i), "IN", taxonomy.levels.back()[i]);
    }
    db_.Assert(taxonomy.Root(), "NEEDS", "OXYGEN");
  }

  std::unique_ptr<Closure> Compute(ClosureOptions::Strategy strategy,
                                   unsigned num_threads) {
    MathProvider math(&db_.store().entities());
    RuleEngine engine(&db_.store(), &math);
    ClosureOptions options;
    options.strategy = strategy;
    options.num_threads = num_threads;
    auto closure = engine.ComputeClosure(db_.rules(), options);
    EXPECT_TRUE(closure.ok()) << closure.status().ToString();
    return closure.ok() ? std::move(*closure) : nullptr;
  }

  LooseDb db_;
};

TEST_P(ParallelClosureTest, ThreadCountsAgreeFactForFact) {
  BuildWorkload();
  auto sequential = Compute(ClosureOptions::Strategy::kSemiNaive, 1);
  ASSERT_NE(sequential, nullptr);
  const std::vector<Fact> want = AllDerived(*sequential);

  const std::vector<std::vector<Fact>> want_tiers =
      DerivedTiers(*sequential);

  for (unsigned num_threads : {2u, 3u, 4u, 8u}) {
    auto parallel =
        Compute(ClosureOptions::Strategy::kSemiNaive, num_threads);
    ASSERT_NE(parallel, nullptr) << "num_threads=" << num_threads;
    EXPECT_EQ(AllDerived(*parallel), want)
        << "num_threads=" << num_threads;
    EXPECT_EQ(DerivedTiers(*parallel), want_tiers)
        << "num_threads=" << num_threads;
    // The round structure, candidate and probe accounting are
    // deterministic too, not just the final set.
    EXPECT_EQ(parallel->stats().rounds, sequential->stats().rounds);
    EXPECT_EQ(parallel->stats().derived_facts,
              sequential->stats().derived_facts);
    EXPECT_EQ(parallel->stats().candidate_facts,
              sequential->stats().candidate_facts);
    EXPECT_EQ(parallel->stats().probes, sequential->stats().probes);
    EXPECT_EQ(parallel->stats().probes_skipped,
              sequential->stats().probes_skipped);
  }
}

TEST_P(ParallelClosureTest, MatchesNaiveAnchor) {
  BuildWorkload();
  auto naive = Compute(ClosureOptions::Strategy::kNaive, 1);
  auto parallel = Compute(ClosureOptions::Strategy::kSemiNaive, 4);
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(AllDerived(*parallel), AllDerived(*naive));
}

// Depths/fanouts chosen so round-1 deltas range from below the
// per-worker minimum (threads decline to spawn) to several hundred
// facts (up to 8 workers actually run); DAG variants widen the
// multi-parent join paths.
INSTANTIATE_TEST_SUITE_P(
    RandomTaxonomies, ParallelClosureTest,
    ::testing::Values(WorkloadParams{2, 3, 0.0, 7},
                      WorkloadParams{4, 3, 0.0, 7},
                      WorkloadParams{4, 3, 0.3, 11},
                      WorkloadParams{5, 3, 0.15, 13},
                      WorkloadParams{16, 1, 0.0, 17},
                      WorkloadParams{3, 6, 0.2, 23}),
    ParamName);

}  // namespace
}  // namespace lsd
