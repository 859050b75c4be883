#include "align/msa.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace perftrack::align {
namespace {

std::vector<Symbol> seq(std::initializer_list<int> values) {
  return std::vector<Symbol>(values.begin(), values.end());
}

std::vector<Symbol> strip_gaps(std::span<const Symbol> aligned) {
  std::vector<Symbol> out;
  for (Symbol s : aligned)
    if (s != kGap) out.push_back(s);
  return out;
}

TEST(StarAlign, EmptyInput) {
  MultipleAlignment msa = star_align({});
  EXPECT_EQ(msa.sequence_count(), 0u);
  EXPECT_EQ(msa.column_count(), 0u);
  EXPECT_TRUE(msa.consensus().empty());
}

TEST(StarAlign, IdenticalSequences) {
  std::vector<std::vector<Symbol>> seqs(5, seq({0, 1, 2, 3}));
  MultipleAlignment msa = star_align(seqs);
  EXPECT_EQ(msa.sequence_count(), 5u);
  EXPECT_EQ(msa.column_count(), 4u);
  for (std::size_t s = 0; s < 5; ++s)
    EXPECT_EQ(strip_gaps(msa.row(s)), seqs[s]);
  EXPECT_EQ(msa.consensus(), seq({0, 1, 2, 3}));
}

TEST(StarAlign, OneSequenceMissingAPhase) {
  std::vector<std::vector<Symbol>> seqs{
      seq({0, 1, 2, 3}), seq({0, 1, 2, 3}), seq({0, 2, 3})};
  MultipleAlignment msa = star_align(seqs);
  EXPECT_EQ(msa.column_count(), 4u);
  // The short row gets a gap at the missing position.
  EXPECT_EQ(msa.row(2)[1], kGap);
  // Majority vote still reconstructs the full phase ladder.
  EXPECT_EQ(msa.consensus(), seq({0, 1, 2, 3}));
}

TEST(StarAlign, SymbolSubstitutionKeepsColumns) {
  // Two tasks execute phase 1, one executes phase 7 at the same position —
  // the bimodal-split situation the SPMD evaluator relies on.
  std::vector<std::vector<Symbol>> seqs{
      seq({0, 1, 2}), seq({0, 1, 2}), seq({0, 7, 2})};
  MultipleAlignment msa = star_align(seqs);
  EXPECT_EQ(msa.column_count(), 3u);
  EXPECT_EQ(msa.row(0)[1], 1);
  EXPECT_EQ(msa.row(2)[1], 7);
  EXPECT_EQ(msa.consensus(), seq({0, 1, 2}));
}

TEST(StarAlign, EmptyMemberSequenceBecomesAllGaps) {
  std::vector<std::vector<Symbol>> seqs{seq({1, 2, 3}), {}};
  MultipleAlignment msa = star_align(seqs);
  EXPECT_EQ(msa.column_count(), 3u);
  EXPECT_EQ(strip_gaps(msa.row(1)).size(), 0u);
}

TEST(StarAlign, ConsensusMajorityTieBreaksToSmallerSymbol) {
  std::vector<std::vector<Symbol>> seqs{seq({5}), seq({3})};
  MultipleAlignment msa = star_align(seqs);
  EXPECT_EQ(msa.consensus(), seq({3}));
}

class MsaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MsaProperty, RowsReduceToInputs) {
  perftrack::Rng rng(GetParam());
  // SPMD-like inputs: near-identical phase ladders with random dropouts and
  // occasional substitutions.
  std::vector<Symbol> ladder;
  int phases = static_cast<int>(rng.uniform_int(3, 10));
  int iterations = static_cast<int>(rng.uniform_int(2, 6));
  for (int it = 0; it < iterations; ++it)
    for (int p = 0; p < phases; ++p) ladder.push_back(p);

  std::vector<std::vector<Symbol>> seqs;
  int tasks = static_cast<int>(rng.uniform_int(2, 12));
  for (int t = 0; t < tasks; ++t) {
    std::vector<Symbol> s;
    for (Symbol sym : ladder) {
      if (rng.chance(0.05)) continue;  // dropout
      s.push_back(rng.chance(0.05) ? sym + 100 : sym);
    }
    seqs.push_back(std::move(s));
  }

  MultipleAlignment msa = star_align(seqs);
  ASSERT_EQ(msa.sequence_count(), seqs.size());
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    EXPECT_EQ(strip_gaps(msa.row(s)), seqs[s]) << "row " << s;
    EXPECT_EQ(msa.row(s).size(), msa.column_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsaProperty,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 14, 16));

// --- Parallel and banded star-align byte identity -----------------------

std::vector<std::vector<Symbol>> spmd_inputs(std::uint64_t seed) {
  perftrack::Rng rng(seed);
  std::vector<Symbol> ladder;
  int phases = static_cast<int>(rng.uniform_int(3, 10));
  int iterations = static_cast<int>(rng.uniform_int(2, 8));
  for (int it = 0; it < iterations; ++it)
    for (int p = 0; p < phases; ++p) ladder.push_back(p);

  std::vector<std::vector<Symbol>> seqs;
  int tasks = static_cast<int>(rng.uniform_int(2, 16));
  for (int t = 0; t < tasks; ++t) {
    std::vector<Symbol> s;
    for (Symbol sym : ladder) {
      if (rng.chance(0.05)) continue;
      s.push_back(rng.chance(0.05) ? sym + 100 : sym);
    }
    seqs.push_back(std::move(s));
  }
  // Duplicates (the SPMD common case, deduplicated by the pair memo) and
  // an empty member (all-gap row) ride along.
  if (!seqs.empty()) seqs.push_back(seqs.front());
  seqs.push_back({});
  return seqs;
}

class StarAlignParallel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StarAlignParallel, PoolsOfAnySizeMatchSerial) {
  const std::vector<std::vector<Symbol>> seqs = spmd_inputs(GetParam());
  const MultipleAlignment serial = star_align(seqs);
  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    MultipleAlignment pooled =
        star_align(seqs, {}, &pool);
    EXPECT_EQ(pooled.rows(), serial.rows()) << threads << " threads";
    EXPECT_EQ(pooled.consensus(), serial.consensus());
  }
}

TEST_P(StarAlignParallel, BandedEngineUnderPoolMatchesFullSerial) {
  const std::vector<std::vector<Symbol>> seqs = spmd_inputs(GetParam());
  const MultipleAlignment full =
      star_align(seqs, {}, nullptr, AlignmentEngine::kFull);
  ThreadPool pool(4);
  MultipleAlignment banded =
      star_align(seqs, {}, &pool, AlignmentEngine::kBanded);
  EXPECT_EQ(banded.rows(), full.rows());
  EXPECT_EQ(banded.consensus(), full.consensus());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarAlignParallel,
                         ::testing::Values(3, 9, 21, 33, 47, 61));

TEST(StarAlignParallel, AllGapAndDuplicateMembersSurviveThePool) {
  // Empty members become all-gap rows, and duplicate members must land in
  // their own row positions, identically to the serial path.
  std::vector<std::vector<Symbol>> seqs{
      seq({0, 1, 2, 3}), {}, seq({0, 1, 2, 3}), seq({0, 2, 3}), {}};
  const MultipleAlignment serial = star_align(seqs);
  ThreadPool pool(4);
  const MultipleAlignment pooled = star_align(seqs, {}, &pool);
  EXPECT_EQ(pooled.rows(), serial.rows());
  ASSERT_EQ(pooled.sequence_count(), 5u);
  EXPECT_EQ(strip_gaps(pooled.row(1)).size(), 0u);
  EXPECT_EQ(strip_gaps(pooled.row(4)).size(), 0u);
  EXPECT_EQ(pooled.rows()[0], pooled.rows()[2]);
}

TEST(StarAlignParallel, NullAndSingleThreadPoolsAreTheSerialPath) {
  const std::vector<std::vector<Symbol>> seqs = spmd_inputs(77);
  const MultipleAlignment serial = star_align(seqs);
  ThreadPool one(1);
  EXPECT_EQ(star_align(seqs, {}, &one).rows(), serial.rows());
  EXPECT_EQ(star_align(seqs, {}, nullptr).rows(), serial.rows());
}

}  // namespace
}  // namespace perftrack::align
