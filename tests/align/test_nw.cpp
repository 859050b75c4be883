#include "align/nw.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"

namespace perftrack::align {
namespace {

std::vector<Symbol> seq(std::initializer_list<int> values) {
  return std::vector<Symbol>(values.begin(), values.end());
}

/// Symbols of `aligned` with gaps removed.
std::vector<Symbol> strip_gaps(const std::vector<Symbol>& aligned) {
  std::vector<Symbol> out;
  for (Symbol s : aligned)
    if (s != kGap) out.push_back(s);
  return out;
}

TEST(NeedlemanWunsch, IdenticalSequencesAlignWithoutGaps) {
  auto a = seq({1, 2, 3, 4, 5});
  PairAlignment result = needleman_wunsch(a, a);
  EXPECT_EQ(result.a, a);
  EXPECT_EQ(result.b, a);
  EXPECT_EQ(result.matches(), 5u);
  EXPECT_DOUBLE_EQ(result.identity(), 1.0);
  EXPECT_DOUBLE_EQ(result.score, 10.0);  // 5 matches x 2.0
}

TEST(NeedlemanWunsch, SingleInsertion) {
  auto a = seq({1, 2, 3});
  auto b = seq({1, 2, 9, 3});
  PairAlignment result = needleman_wunsch(a, b);
  ASSERT_EQ(result.length(), 4u);
  EXPECT_EQ(result.a, seq({1, 2, kGap, 3}));
  EXPECT_EQ(result.b, b);
  EXPECT_EQ(result.matches(), 3u);
}

TEST(NeedlemanWunsch, SingleDeletion) {
  auto a = seq({1, 2, 9, 3});
  auto b = seq({1, 2, 3});
  PairAlignment result = needleman_wunsch(a, b);
  EXPECT_EQ(result.b, seq({1, 2, kGap, 3}));
  EXPECT_EQ(result.matches(), 3u);
}

TEST(NeedlemanWunsch, EmptySequences) {
  PairAlignment both = needleman_wunsch({}, {});
  EXPECT_EQ(both.length(), 0u);
  EXPECT_DOUBLE_EQ(both.identity(), 1.0);

  auto a = seq({1, 2});
  PairAlignment left = needleman_wunsch(a, {});
  EXPECT_EQ(left.a, a);
  EXPECT_EQ(left.b, seq({kGap, kGap}));
  EXPECT_DOUBLE_EQ(left.identity(), 0.0);
}

TEST(NeedlemanWunsch, CompletelyDifferentSequences) {
  auto a = seq({1, 1, 1});
  auto b = seq({2, 2, 2});
  PairAlignment result = needleman_wunsch(a, b);
  EXPECT_EQ(result.matches(), 0u);
  EXPECT_DOUBLE_EQ(result.identity(), 0.0);
}

TEST(NeedlemanWunsch, CustomScoreFunction) {
  // Score function that treats 1<->7 as a match (cross-experiment ids).
  auto score = [](Symbol x, Symbol y) {
    bool match = (x == 1 && y == 7) || x == y;
    return match ? 2.0 : -1.0;
  };
  auto a = seq({1, 2, 3});
  auto b = seq({7, 2, 3});
  // No bound on the score: the full DP.
  PairAlignment result = needleman_wunsch(
      a, b, score, -1.0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(result.a, a);
  EXPECT_EQ(result.b, b);
  EXPECT_DOUBLE_EQ(result.score, 6.0);
}

TEST(NeedlemanWunsch, PrefersMatchesOverGaps) {
  auto a = seq({5, 1, 2, 3});
  auto b = seq({1, 2, 3, 6});
  PairAlignment result = needleman_wunsch(a, b);
  EXPECT_EQ(result.matches(), 3u);  // 1,2,3 aligned
}

class NwProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NwProperty, AlignmentPreservesInputSequences) {
  perftrack::Rng rng(GetParam());
  std::vector<Symbol> a, b;
  int la = static_cast<int>(rng.uniform_int(0, 60));
  int lb = static_cast<int>(rng.uniform_int(0, 60));
  for (int i = 0; i < la; ++i)
    a.push_back(static_cast<Symbol>(rng.uniform_int(0, 8)));
  for (int i = 0; i < lb; ++i)
    b.push_back(static_cast<Symbol>(rng.uniform_int(0, 8)));

  PairAlignment result = needleman_wunsch(a, b);
  // Both gapped rows have equal length and reduce to the originals.
  EXPECT_EQ(result.a.size(), result.b.size());
  EXPECT_EQ(strip_gaps(result.a), a);
  EXPECT_EQ(strip_gaps(result.b), b);
  // No column is gap-gap.
  for (std::size_t c = 0; c < result.length(); ++c)
    EXPECT_FALSE(result.a[c] == kGap && result.b[c] == kGap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NwProperty,
                         ::testing::Values(3, 7, 19, 31, 57, 91));

// --- Engine knob and banded/full identity -------------------------------

void expect_same_alignment(const PairAlignment& x, const PairAlignment& y) {
  EXPECT_EQ(x.a, y.a);
  EXPECT_EQ(x.b, y.b);
  EXPECT_DOUBLE_EQ(x.score, y.score);
}

TEST(NeedlemanWunschBanded, DegenerateShapesMatchFull) {
  const std::vector<std::pair<std::vector<Symbol>, std::vector<Symbol>>>
      cases = {{{}, {}},         {seq({1}), {}},      {{}, seq({2})},
               {seq({1}), seq({1})}, {seq({1}), seq({2})},
               {seq({3, 3, 3}), seq({3})}};
  for (const auto& [a, b] : cases) {
    PairAlignment full = needleman_wunsch(a, b, {}, AlignmentEngine::kFull);
    PairAlignment banded =
        needleman_wunsch(a, b, {}, AlignmentEngine::kBanded);
    expect_same_alignment(full, banded);
  }
}

TEST(NeedlemanWunschBanded, ShiftedLadderForcesWideningAndStaysIdentical) {
  // b is a distant suffix of a: the optimum needs ~60 leading gaps, far
  // outside the initial half-width of the corridor, so the band must widen
  // (and re-run) several times before the certificate holds.
  std::vector<Symbol> a, b;
  for (int i = 0; i < 120; ++i) a.push_back(static_cast<Symbol>(i % 6));
  for (int i = 60; i < 120; ++i) b.push_back(static_cast<Symbol>(i % 6));
  PairAlignment full = needleman_wunsch(a, b, {}, AlignmentEngine::kFull);
  PairAlignment banded = needleman_wunsch(a, b, {}, AlignmentEngine::kBanded);
  expect_same_alignment(full, banded);
}

TEST(NeedlemanWunschBanded, CustomScoreMatchesFull) {
  // The evaluator_sequence scoring shape: pivot pairs reward, crossed
  // pivots punish, unknowns are mildly alignable.
  auto score = [](Symbol x, Symbol y) -> double {
    if (x == y) return 3.0;
    if ((x + y) % 2 == 0) return -2.0;
    return 0.5;
  };
  perftrack::Rng rng(41);
  std::vector<Symbol> a, b;
  for (int i = 0; i < 80; ++i) {
    Symbol s = static_cast<Symbol>(rng.uniform_int(0, 5));
    a.push_back(s);
    if (!rng.chance(0.1)) b.push_back(s);
  }
  PairAlignment full =
      needleman_wunsch(a, b, score, -1.0, 3.0, AlignmentEngine::kFull);
  PairAlignment banded =
      needleman_wunsch(a, b, score, -1.0, 3.0, AlignmentEngine::kBanded);
  expect_same_alignment(full, banded);
  // With no bound (+infinity) the automatic choice is the full DP.
  expect_same_alignment(
      full, needleman_wunsch(a, b, score, -1.0,
                             std::numeric_limits<double>::infinity()));
}

TEST(NeedlemanWunschBanded, IneligibleScoringFallsBackToFull) {
  // gap >= s_max/2 breaks the certificate's monotonicity precondition, so
  // the banded engine must refuse to band and still answer correctly.
  AlignmentScores scores;
  scores.match = -1.0;
  scores.mismatch = -2.0;
  scores.gap = -0.4;  // >= s_max/2 = -0.5
  auto a = seq({1, 2, 3, 4});
  auto b = seq({1, 3, 4, 5});
  PairAlignment full = needleman_wunsch(a, b, scores, AlignmentEngine::kFull);
  PairAlignment banded =
      needleman_wunsch(a, b, scores, AlignmentEngine::kBanded);
  expect_same_alignment(full, banded);
}

class BandedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandedProperty, BandedAndAutoMatchFullOnSpmdLikeInputs) {
  perftrack::Rng rng(GetParam());
  // Near-identical phase ladders with dropouts, substitutions and a random
  // relative shift — the distribution the tracker feeds the engine, plus
  // enough adversarial drift to hit corridor contact.
  std::vector<Symbol> a, b;
  const int phases = static_cast<int>(rng.uniform_int(2, 10));
  const int len = static_cast<int>(rng.uniform_int(0, 150));
  const int shift = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < len; ++i) {
    Symbol s = static_cast<Symbol>(i % phases);
    if (!rng.chance(0.05)) a.push_back(s);
    if (i >= shift && !rng.chance(0.05))
      b.push_back(rng.chance(0.05) ? s + 100 : s);
  }
  AlignmentScores scores;
  scores.match = 1.0 + rng.uniform_int(0, 3);
  scores.mismatch = -static_cast<double>(rng.uniform_int(0, 2));
  scores.gap = -0.5 - rng.uniform_int(0, 2);

  PairAlignment full = needleman_wunsch(a, b, scores, AlignmentEngine::kFull);
  expect_same_alignment(
      full, needleman_wunsch(a, b, scores, AlignmentEngine::kBanded));
  expect_same_alignment(
      full, needleman_wunsch(a, b, scores, AlignmentEngine::kAuto));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedProperty,
                         ::testing::Values(5, 11, 23, 37, 53, 71, 89, 101,
                                           113, 127));

}  // namespace
}  // namespace perftrack::align
