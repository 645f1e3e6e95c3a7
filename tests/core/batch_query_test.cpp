// The engine's bounded top-k (DESIGN.md §6): its (similarity desc,
// index asc) heap must keep exactly what a full stable sort keeps, ties
// included, for every metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/similarity_engine.hpp"

namespace crp::core {
namespace {

class BatchQueryOracleTest
    : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(BatchQueryOracleTest, SingleQueryTopKMatchesFullSortWithTies) {
  // Heavily tied corpus: duplicated maps make equal similarities common,
  // so the bounded heap's (similarity desc, index asc) tie-break is
  // actually exercised against the stable-sort baseline.
  const SimilarityKind kind = GetParam();
  std::vector<RatioMap> corpus;
  for (int copy = 0; copy < 4; ++copy) {
    for (std::uint32_t base = 0; base < 5; ++base) {
      corpus.push_back(RatioMap::from_ratios(
          std::vector<RatioMap::Entry>{{ReplicaId{base}, 0.5},
                                       {ReplicaId{base + 1}, 0.5}}));
    }
  }
  const SimilarityEngine engine{corpus, kind};
  const auto query = RatioMap::from_ratios(std::vector<RatioMap::Entry>{
      {ReplicaId{1}, 0.6}, {ReplicaId{3}, 0.4}});

  const auto ranked = engine.rank_all(query);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{20}, std::size_t{50}}) {
    const auto top = engine.top_k(query, k);
    ASSERT_EQ(top.size(), std::min(k, ranked.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].index, ranked[i].index) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].similarity, ranked[i].similarity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BatchQueryOracleTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kJaccard,
                                           SimilarityKind::kWeightedOverlap));

}  // namespace
}  // namespace crp::core
