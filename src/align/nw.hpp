#pragma once
// Needleman–Wunsch global sequence alignment.
//
// The SPMD-simultaneity and execution-sequence evaluators (paper §3.2 and
// §3.4, building on González et al. [8]) reduce to globally aligning
// sequences of cluster identifiers. This is the classic O(|a|·|b|) dynamic
// program with linear gap penalty; the scoring can be the default
// match/mismatch scheme or an arbitrary symbol-pair function (used by the
// execution-sequence evaluator, whose "match" is defined by pivot relations
// between two *different* experiments' identifier spaces).
//
// Two engines compute the same alignment:
//
//  * kFull — the reference (n+1)x(m+1) dynamic program.
//  * kBanded — an adaptive diagonal corridor. SPMD cluster sequences are
//    near-identical, so the optimal path hugs the diagonal; the banded
//    engine fills only the cells within a corridor of offsets i-j, widens
//    and re-runs when the per-row optimum touches the corridor boundary,
//    and certifies the result against an upper bound on every path that
//    leaves the corridor. The certificate makes the equality *provable*,
//    tie-breaking included: the banded engine only returns when every
//    complete path visiting an out-of-corridor cell scores strictly below
//    the banded optimum, which forces the full DP's deterministic
//    traceback (diagonal > up > left on ties) through the corridor along
//    the exact cells the banded traceback visits. Otherwise it widens
//    (doubling) until the corridor covers the whole matrix, at which point
//    it *is* the full DP.
//
// kAuto picks the banded engine when the scoring scheme admits the
// certificate (negative gap penalty below half the maximum pair score) and
// the problem is big enough to profit; kFull/kBanded force an engine. The
// choice is this module's own: callers outside align/ take kAuto, and only
// the equivalence tests, the fuzzer and the benchmarks force an engine.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perftrack::align {

/// A sequence symbol; cluster identifiers are non-negative.
using Symbol = std::int32_t;

/// Gap marker inserted by alignment.
inline constexpr Symbol kGap = -1;

struct AlignmentScores {
  double match = 2.0;
  double mismatch = -1.0;
  double gap = -1.0;
};

/// Which dynamic program computes the alignment. All three produce
/// byte-identical results (score, rows, tie-broken traceback).
enum class AlignmentEngine {
  kAuto,    ///< banded when the scoring admits it and the input is large
  kFull,    ///< reference full-matrix DP
  kBanded,  ///< force the certified banded DP (falls back when ineligible)
};

/// Result of a pairwise global alignment: both sequences padded with kGap to
/// a common length.
struct PairAlignment {
  std::vector<Symbol> a;
  std::vector<Symbol> b;
  double score = 0.0;

  std::size_t length() const { return a.size(); }

  /// Count of columns where both symbols are non-gap and equal.
  std::size_t matches() const;

  /// matches() / max(|a|,|b| original lengths); 1.0 for two empty sequences.
  double identity() const;
};

/// Align with the default match/mismatch/gap scheme.
PairAlignment needleman_wunsch(std::span<const Symbol> a,
                               std::span<const Symbol> b,
                               const AlignmentScores& scores = {},
                               AlignmentEngine engine = AlignmentEngine::kAuto);

/// Align with an arbitrary pair score, a linear gap penalty, and the bound
/// the banded certificate needs: `max_pair_score` must satisfy
/// pair_score(x, y) <= max_pair_score for every symbol pair the sequences
/// can form. An unsound bound breaks the equality guarantee; a caller with
/// no bound passes +infinity, which takes the full DP.
PairAlignment needleman_wunsch(
    std::span<const Symbol> a, std::span<const Symbol> b,
    const std::function<double(Symbol, Symbol)>& pair_score,
    double gap_penalty, double max_pair_score,
    AlignmentEngine engine = AlignmentEngine::kAuto);

}  // namespace perftrack::align
