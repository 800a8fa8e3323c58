#include "core/affinity.h"

#include <gtest/gtest.h>

#include "dense_feedback_oracle.h"

namespace hmmm {
namespace {

TEST(InitialShotAffinityTest, PaperWorkedExample) {
  // Section 4.2.1.1: shots "Free Kick" (NE=1), "Free Kick"+"Goal" (NE=2),
  // "Corner Kick" (NE=1) give:
  //   A1(1,2)=2/3, A1(1,3)=1/3, A1(2,2)=1/2, A1(2,3)=1/2, A1(3,3)=1.
  auto a1 = InitialShotAffinity({1, 2, 1});
  ASSERT_TRUE(a1.ok());
  EXPECT_DOUBLE_EQ(a1->at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a1->at(0, 1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(a1->at(0, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(a1->at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a1->at(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(a1->at(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(a1->at(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(a1->at(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(a1->at(2, 2), 1.0);
}

TEST(InitialShotAffinityTest, AlwaysRowStochasticUpperTriangular) {
  for (const auto& counts : std::vector<std::vector<int>>{
           {1}, {1, 1}, {3, 1, 2, 5}, {2, 2, 2, 2, 2, 2}, {7}}) {
    auto a1 = InitialShotAffinity(counts);
    ASSERT_TRUE(a1.ok());
    EXPECT_TRUE(a1->IsRowStochastic(1e-12)) << a1->ToString();
    for (size_t i = 0; i < a1->rows(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        EXPECT_DOUBLE_EQ(a1->at(i, j), 0.0);
      }
    }
  }
}

TEST(InitialShotAffinityTest, SingleShotIsAbsorbing) {
  auto a1 = InitialShotAffinity({3});
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1->rows(), 1u);
  EXPECT_DOUBLE_EQ(a1->at(0, 0), 1.0);
}

TEST(InitialShotAffinityTest, EmptyAndInvalidInputs) {
  auto empty = InitialShotAffinity({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows(), 0u);
  EXPECT_FALSE(InitialShotAffinity({1, 0, 1}).ok());
  EXPECT_FALSE(InitialShotAffinity({-1}).ok());
}

TEST(InitialShotAffinityTest, HigherCountsAttractMoreMass) {
  // A shot with more annotations receives a proportionally larger
  // incoming transition probability.
  auto a1 = InitialShotAffinity({1, 3, 1});
  ASSERT_TRUE(a1.ok());
  EXPECT_DOUBLE_EQ(a1->at(0, 1), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(a1->at(0, 2), 1.0 / 4.0);
}

TEST(AccumulateShotAffinityTest, Equation1CoAccess) {
  // Prior: the paper example matrix. One positive pattern hits shots
  // {0, 2} with access frequency 2.
  auto prior = *InitialShotAffinity({1, 2, 1});
  std::vector<AccessPattern> patterns = {{{0, 2}, 2.0}};
  auto af1 = AccumulateShotAffinity(prior, patterns);
  ASSERT_TRUE(af1.ok());
  // aff1(0,2) = A1(0,2) * 2 = (1/3)*2; aff1(0,0) = A1(0,0)*2 = 0.
  EXPECT_DOUBLE_EQ(af1->at(0, 2), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(af1->at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(af1->at(0, 1), 0.0);  // shot 1 not in pattern
  EXPECT_DOUBLE_EQ(af1->at(2, 2), 2.0);  // self co-access * A1(2,2)=1
  // Temporal restriction: no mass below the diagonal.
  EXPECT_DOUBLE_EQ(af1->at(2, 0), 0.0);
}

TEST(AccumulateShotAffinityTest, DuplicateStatesCountOnce) {
  auto prior = *InitialShotAffinity({1, 1});
  std::vector<AccessPattern> patterns = {{{0, 0, 1}, 1.0}};
  auto af1 = AccumulateShotAffinity(prior, patterns);
  ASSERT_TRUE(af1.ok());
  // use() is an indicator: duplicate 0 must not double count.
  EXPECT_DOUBLE_EQ(af1->at(0, 1), prior.at(0, 1) * 1.0);
}

TEST(AccumulateShotAffinityTest, ValidatesInputs) {
  auto prior = *InitialShotAffinity({1, 1});
  EXPECT_FALSE(AccumulateShotAffinity(Matrix(2, 3), {}).ok());
  EXPECT_FALSE(AccumulateShotAffinity(prior, {{{5}, 1.0}}).ok());
  EXPECT_FALSE(AccumulateShotAffinity(prior, {{{0}, -1.0}}).ok());
}

TEST(NormalizeAffinityTest, Equation2RowNormalization) {
  auto accumulated = *Matrix::FromRows({{2.0, 6.0}, {0.0, 0.0}});
  auto prior = *Matrix::FromRows({{0.5, 0.5}, {0.1, 0.9}});
  const Matrix a1 = NormalizeAffinity(accumulated, prior);
  EXPECT_DOUBLE_EQ(a1.at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(a1.at(0, 1), 0.75);
  // Zero row keeps the prior distribution.
  EXPECT_DOUBLE_EQ(a1.at(1, 0), 0.1);
  EXPECT_DOUBLE_EQ(a1.at(1, 1), 0.9);
  EXPECT_TRUE(a1.IsRowStochastic(1e-12));
}

// The dense Eq.-5 accumulation survives as the test oracle for the
// learner's row-sparse A2 update (dense_feedback_oracle.h); these cases
// pin the oracle itself to the paper.
TEST(AccumulateVideoAffinityTest, Equation5SymmetricCoAccess) {
  std::vector<AccessPattern> patterns = {{{0, 2}, 3.0}, {{1}, 1.0}};
  auto af2 = testing::DenseAccumulateVideoAffinity(3, patterns);
  ASSERT_TRUE(af2.ok());
  // Videos 0 and 2 co-accessed 3 times, in both directions (no temporal
  // restriction at the video level).
  EXPECT_DOUBLE_EQ(af2->at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(af2->at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(af2->at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(af2->at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(af2->at(0, 1), 0.0);
}

TEST(AccumulateVideoAffinityTest, ValidatesStates) {
  EXPECT_FALSE(testing::DenseAccumulateVideoAffinity(2, {{{3}, 1.0}}).ok());
}

TEST(ValidateAccessPatternsTest, FirstBadPatternDecidesTheCode) {
  EXPECT_TRUE(ValidateAccessPatterns(2, {}).ok());
  EXPECT_TRUE(ValidateAccessPatterns(2, {{{0, 1, 1}, 0.0}}).ok());
  EXPECT_EQ(ValidateAccessPatterns(2, {{{2}, 1.0}}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ValidateAccessPatterns(2, {{{-1}, 1.0}}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ValidateAccessPatterns(2, {{{0}, -1.0}}).code(),
            StatusCode::kInvalidArgument);
  // Patterns are checked in order; the count before the states.
  EXPECT_EQ(ValidateAccessPatterns(2, {{{5}, -1.0}, {{7}, 1.0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateAccessPatterns(2, {{{5}, 1.0}, {{0}, -1.0}}).code(),
            StatusCode::kOutOfRange);
}

TEST(DistributionFromPatternsTest, InitialStateSemantics) {
  std::vector<AccessPattern> patterns = {{{1, 2}, 2.0}, {{0, 2}, 1.0}};
  const std::vector<double> fallback = {0.25, 0.25, 0.25, 0.25};
  const auto pi = DistributionFromPatterns(
      4, patterns, PiSemantics::kInitialStateCounts, fallback);
  // Pattern starts: state 1 with weight 2, state 0 with weight 1.
  EXPECT_DOUBLE_EQ(pi[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(pi[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pi[2], 0.0);
}

TEST(DistributionFromPatternsTest, LiteralEquation4Semantics) {
  std::vector<AccessPattern> patterns = {{{1, 2}, 2.0}, {{0, 2}, 1.0}};
  const std::vector<double> fallback = {0.25, 0.25, 0.25, 0.25};
  const auto pi = DistributionFromPatterns(
      4, patterns, PiSemantics::kLiteralEquation4, fallback);
  // All uses count: state 1: 2; state 2: 2+1; state 0: 1; total 6.
  EXPECT_DOUBLE_EQ(pi[0], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(pi[1], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(pi[2], 3.0 / 6.0);
}

TEST(DistributionFromPatternsTest, NoDataFallsBack) {
  const std::vector<double> fallback = {0.5, 0.5};
  EXPECT_EQ(DistributionFromPatterns(2, {}, PiSemantics::kInitialStateCounts,
                                     fallback),
            fallback);
}

}  // namespace
}  // namespace hmmm
