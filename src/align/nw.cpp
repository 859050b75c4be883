#include "align/nw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::align {

std::size_t PairAlignment::matches() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != kGap && a[i] == b[i]) ++n;
  return n;
}

double PairAlignment::identity() const {
  std::size_t la = 0, lb = 0;
  for (Symbol s : a)
    if (s != kGap) ++la;
  for (Symbol s : b)
    if (s != kGap) ++lb;
  std::size_t longest = std::max(la, lb);
  if (longest == 0) return 1.0;
  return static_cast<double>(matches()) / static_cast<double>(longest);
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// kAuto only bands inputs with at least this many full-DP cells; below it
/// the banded bookkeeping costs more than the cells it skips.
constexpr std::size_t kAutoBandedMinCells = 4096;

/// Initial corridor half-width; doubles on every failed attempt.
constexpr std::ptrdiff_t kInitialHalfWidth = 8;

/// Reference full-matrix DP. Templated on the score callable so the
/// default match/mismatch scheme pays no std::function indirection per
/// cell. move stores the traceback direction: 0 = diagonal (align a[i-1]
/// with b[j-1]), 1 = up (gap in b), 2 = left (gap in a). Ties prefer
/// diagonal, then up — deterministic tracebacks.
template <typename Score>
PairAlignment full_dp(std::span<const Symbol> a, std::span<const Symbol> b,
                      const Score& pair_score, double gap_penalty) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  PT_COUNTER("alignment_cells", static_cast<double>(n * m));

  std::vector<double> dp((n + 1) * (m + 1), 0.0);
  std::vector<std::uint8_t> move((n + 1) * (m + 1), 0);
  auto at = [m](std::size_t i, std::size_t j) { return i * (m + 1) + j; };

  for (std::size_t i = 1; i <= n; ++i) {
    dp[at(i, 0)] = static_cast<double>(i) * gap_penalty;
    move[at(i, 0)] = 1;
  }
  for (std::size_t j = 1; j <= m; ++j) {
    dp[at(0, j)] = static_cast<double>(j) * gap_penalty;
    move[at(0, j)] = 2;
  }

  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      double diag = dp[at(i - 1, j - 1)] + pair_score(a[i - 1], b[j - 1]);
      double up = dp[at(i - 1, j)] + gap_penalty;
      double left = dp[at(i, j - 1)] + gap_penalty;
      double best = diag;
      std::uint8_t dir = 0;
      if (up > best) {
        best = up;
        dir = 1;
      }
      if (left > best) {
        best = left;
        dir = 2;
      }
      dp[at(i, j)] = best;
      move[at(i, j)] = dir;
    }
  }

  PairAlignment out;
  out.score = dp[at(n, m)];
  std::size_t i = n, j = m;
  while (i > 0 || j > 0) {
    std::uint8_t dir = move[at(i, j)];
    if (dir == 0) {
      out.a.push_back(a[i - 1]);
      out.b.push_back(b[j - 1]);
      --i;
      --j;
    } else if (dir == 1) {
      out.a.push_back(a[i - 1]);
      out.b.push_back(kGap);
      --i;
    } else {
      out.a.push_back(kGap);
      out.b.push_back(b[j - 1]);
      --j;
    }
  }
  std::reverse(out.a.begin(), out.a.end());
  std::reverse(out.b.begin(), out.b.end());
  return out;
}

/// One banded attempt over the offset corridor lo <= i-j <= hi.
///
/// Returns true iff the fill completed without the per-row optimum touching
/// a corridor (non-matrix) boundary AND the certificate held:
///
///   B > UB(G_min)
///
/// where B is the banded optimum, G_min the minimum number of gap moves any
/// complete path needs to visit an offset outside [lo, hi], and
/// UB(G) = (n+m-G)/2 * s_max + G * g the best score any path with G gap
/// moves can reach (every path satisfies #diagonals = (n+m-G)/2 exactly,
/// and UB is decreasing in G because g < s_max/2). The strict inequality
/// rules out ties, so *every* full-DP-optimal path stays inside the
/// corridor; since banded values are exact for any cell whose optimum is
/// achieved in-corridor, an induction down the traceback shows the banded
/// move choices reproduce the full DP's tie-broken traceback cell for cell.
template <typename Score>
bool banded_attempt(std::span<const Symbol> a, std::span<const Symbol> b,
                    const Score& pair_score, double gap_penalty, double s_max,
                    std::ptrdiff_t lo, std::ptrdiff_t hi, PairAlignment* out,
                    double* cells_filled) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(a.size());
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(b.size());
  const std::ptrdiff_t width = hi - lo + 1;

  // Row i covers columns [max(0, i-hi), min(m, i-lo)]; cell (i, j) lives at
  // column slot j - (i - hi) in its row.
  std::vector<double> dp(static_cast<std::size_t>((n + 1) * width), kNegInf);
  std::vector<std::uint8_t> move(static_cast<std::size_t>((n + 1) * width), 0);
  auto at = [hi, width](std::ptrdiff_t i, std::ptrdiff_t j) {
    return static_cast<std::size_t>(i * width + (j - (i - hi)));
  };

  double filled = 0.0;
  for (std::ptrdiff_t i = 0; i <= n; ++i) {
    const std::ptrdiff_t jlo = std::max<std::ptrdiff_t>(0, i - hi);
    const std::ptrdiff_t jhi = std::min<std::ptrdiff_t>(m, i - lo);
    double row_best = kNegInf;
    std::ptrdiff_t row_arg = jlo;
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j) {
      double best;
      std::uint8_t dir;
      if (i == 0) {
        best = static_cast<double>(j) * gap_penalty;
        dir = j == 0 ? 0 : 2;
      } else if (j == 0) {
        best = static_cast<double>(i) * gap_penalty;
        dir = 1;
      } else {
        // The diagonal predecessor shares the offset, so it is always in
        // the corridor; up/left shift the offset by one and fall out at
        // the corridor edges.
        const std::ptrdiff_t k = i - j;
        best = dp[at(i - 1, j - 1)] + pair_score(a[i - 1], b[j - 1]);
        dir = 0;
        double up = k > lo ? dp[at(i - 1, j)] + gap_penalty : kNegInf;
        double left = k < hi ? dp[at(i, j - 1)] + gap_penalty : kNegInf;
        if (up > best) {
          best = up;
          dir = 1;
        }
        if (left > best) {
          best = left;
          dir = 2;
        }
      }
      dp[at(i, j)] = best;
      move[at(i, j)] = dir;
      if (best > row_best) {
        row_best = best;
        row_arg = j;
      }
    }
    filled += static_cast<double>(jhi - jlo + 1);

    // Adaptive contact check: the optimum drifting onto a corridor-cut
    // boundary means the band is too narrow where it matters — abort the
    // fill early and re-run wider instead of wasting the rest of the rows.
    const bool cut_left = i - hi > 0;   // jlo is a corridor edge, not j=0
    const bool cut_right = i - lo < m;  // jhi is a corridor edge, not j=m
    if ((cut_left && row_arg == jlo) || (cut_right && row_arg == jhi)) {
      *cells_filled += filled;
      return false;
    }
  }
  *cells_filled += filled;

  const double banded_best = dp[at(n, m)];

  // Certificate: minimum gap moves for a path to visit offset hi+1 (above)
  // or lo-1 (below), given offsets start at 0 and end at n-m.
  const double drift = static_cast<double>(n - m);
  const double exit_high = 2.0 * static_cast<double>(hi + 1) - drift;
  const double exit_low = drift - 2.0 * static_cast<double>(lo - 1);
  const double g_min = std::min(exit_high, exit_low);
  const double bound =
      0.5 * (static_cast<double>(n + m) - g_min) * s_max + g_min * gap_penalty;
  if (!(banded_best > bound)) return false;

  out->score = banded_best;
  out->a.clear();
  out->b.clear();
  std::ptrdiff_t i = n, j = m;
  while (i > 0 || j > 0) {
    std::uint8_t dir = move[at(i, j)];
    if (dir == 0) {
      out->a.push_back(a[static_cast<std::size_t>(i - 1)]);
      out->b.push_back(b[static_cast<std::size_t>(j - 1)]);
      --i;
      --j;
    } else if (dir == 1) {
      out->a.push_back(a[static_cast<std::size_t>(i - 1)]);
      out->b.push_back(kGap);
      --i;
    } else {
      out->a.push_back(kGap);
      out->b.push_back(b[static_cast<std::size_t>(j - 1)]);
      --j;
    }
  }
  std::reverse(out->a.begin(), out->a.end());
  std::reverse(out->b.begin(), out->b.end());
  return true;
}

/// Engine dispatch shared by both public scoring schemes.
template <typename Score>
PairAlignment align_sequences(std::span<const Symbol> a,
                              std::span<const Symbol> b,
                              const Score& pair_score, double gap_penalty,
                              double s_max, AlignmentEngine engine) {
  PT_SPAN("needleman_wunsch");
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(a.size());
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(b.size());

  // The certificate needs UB(G) decreasing in G: every extra pair of gap
  // moves trades one diagonal (<= s_max) for two gap penalties. Schemes
  // violating g < s_max/2 (gap-rewarding, or harshly negative matches)
  // take the reference engine; so do empty sequences (nothing to band).
  const bool certifiable = std::isfinite(s_max) && std::isfinite(gap_penalty) &&
                           gap_penalty < 0.0 && gap_penalty < s_max / 2.0;
  bool banded = certifiable && n > 0 && m > 0;
  if (engine == AlignmentEngine::kFull) banded = false;
  if (engine == AlignmentEngine::kAuto &&
      static_cast<std::size_t>(n) * static_cast<std::size_t>(m) <
          kAutoBandedMinCells)
    banded = false;
  if (!banded) return full_dp(a, b, pair_score, gap_penalty);

  PairAlignment out;
  double cells = 0.0;
  double widenings = 0.0;
  for (std::ptrdiff_t w = kInitialHalfWidth;; w *= 2) {
    const std::ptrdiff_t lo = std::min<std::ptrdiff_t>(0, n - m) - w;
    const std::ptrdiff_t hi = std::max<std::ptrdiff_t>(0, n - m) + w;
    if (lo <= -m && hi >= n) {
      // The corridor covers every cell: the banded fill *is* the full DP.
      out = full_dp(a, b, pair_score, gap_penalty);
      break;
    }
    if (banded_attempt(a, b, pair_score, gap_penalty, s_max, lo, hi, &out,
                       &cells))
      break;
    widenings += 1.0;
  }
  if (cells > 0.0) PT_COUNTER("alignment_cells", cells);
  if (widenings > 0.0) PT_COUNTER("alignment_band_widenings", widenings);
  return out;
}

}  // namespace

PairAlignment needleman_wunsch(std::span<const Symbol> a,
                               std::span<const Symbol> b,
                               const AlignmentScores& scores,
                               AlignmentEngine engine) {
  return align_sequences(
      a, b,
      [&scores](Symbol x, Symbol y) {
        return x == y ? scores.match : scores.mismatch;
      },
      scores.gap, std::max(scores.match, scores.mismatch), engine);
}

PairAlignment needleman_wunsch(
    std::span<const Symbol> a, std::span<const Symbol> b,
    const std::function<double(Symbol, Symbol)>& pair_score,
    double gap_penalty, double max_pair_score, AlignmentEngine engine) {
  return align_sequences(a, b, pair_score, gap_penalty, max_pair_score,
                         engine);
}

}  // namespace perftrack::align
