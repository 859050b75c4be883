// Differential fuzzer — banded Needleman–Wunsch vs the full dynamic
// program.
//
// The banded engine promises bit-identical output to the full DP —
// alignment rows, score, traceback tie-breaking, everything — certified
// per call by a score bound (align/nw.hpp). This target decodes two
// symbol sequences plus a scoring configuration from the fuzz bytes, runs
// both engines through both public overloads, and aborts on any
// divergence: a crash here is a broken identity certificate, not a parse
// error.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/nw.hpp"
#include "fuzz_driver.hpp"

namespace {

using perftrack::align::AlignmentEngine;
using perftrack::align::AlignmentScores;
using perftrack::align::PairAlignment;
using perftrack::align::Symbol;

/// Cursor over the fuzz bytes; everything derives from it deterministically.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t u8() { return pos < size ? data[pos++] : 0; }
};

std::vector<Symbol> read_sequence(Reader& r, std::size_t max_len,
                                  int alphabet) {
  const std::size_t len = r.u8() % (max_len + 1);
  std::vector<Symbol> seq;
  seq.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    seq.push_back(static_cast<Symbol>(r.u8() % alphabet));
  return seq;
}

bool same(const PairAlignment& x, const PairAlignment& y) {
  return x.a == y.a && x.b == y.b && x.score == y.score;
}

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_align: banded/full divergence: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader r{data, size};

  // Alphabet small enough to make matches common (interesting tracebacks),
  // sequences long enough to exercise band widening and corridor contact.
  const int alphabet = 1 + r.u8() % 12;
  std::vector<Symbol> a = read_sequence(r, 96, alphabet);
  std::vector<Symbol> b = read_sequence(r, 96, alphabet);

  // Scores overload: derive a configuration that keeps the banded engine
  // eligible most of the time (gap < 0 and gap < match/2) but also wander
  // outside eligibility so the fallback path is exercised too.
  AlignmentScores scores;
  scores.match = 1.0 + (r.u8() % 8);
  scores.mismatch = -static_cast<double>(r.u8() % 4);
  scores.gap = -0.25 * (1 + r.u8() % 16);
  PairAlignment full =
      perftrack::align::needleman_wunsch(a, b, scores, AlignmentEngine::kFull);
  PairAlignment banded = perftrack::align::needleman_wunsch(
      a, b, scores, AlignmentEngine::kBanded);
  check(same(full, banded), "scores overload");

  // Custom pair-score overload (the evaluator_sequence shape): a small
  // score table over the alphabet with a sound per-cell upper bound.
  const double bonus = 0.5 * (r.u8() % 4);
  auto pair_score = [&](Symbol x, Symbol y) -> double {
    if (x == y) return 2.0 + bonus;
    return ((x + y) % 3 == 0) ? 0.5 : -1.5;
  };
  const double gap_penalty = -0.5 - 0.25 * (r.u8() % 8);
  PairAlignment full_custom = perftrack::align::needleman_wunsch(
      a, b, pair_score, gap_penalty, /*max_pair_score=*/2.0 + bonus,
      AlignmentEngine::kFull);
  PairAlignment banded_custom = perftrack::align::needleman_wunsch(
      a, b, pair_score, gap_penalty, /*max_pair_score=*/2.0 + bonus,
      AlignmentEngine::kBanded);
  check(same(full_custom, banded_custom), "custom score overload");

  return 0;
}

std::vector<std::string> fuzz_seed_corpus() {
  std::vector<std::string> seeds;

  // Identical mid-length ladders: the banded fast path.
  {
    std::string s;
    s.push_back(6);   // alphabet
    s.push_back(48);  // len a
    for (int i = 0; i < 48; ++i) s.push_back(static_cast<char>(i % 6));
    s.push_back(48);  // len b
    for (int i = 0; i < 48; ++i) s.push_back(static_cast<char>(i % 6));
    s += std::string(6, 2);  // scores + custom table bytes
    seeds.push_back(s);
  }
  // Shifted copy: forces the corridor against its boundary (widening).
  {
    std::string s;
    s.push_back(4);
    s.push_back(64);
    for (int i = 0; i < 64; ++i) s.push_back(static_cast<char>(i % 4));
    s.push_back(32);
    for (int i = 32; i < 64; ++i) s.push_back(static_cast<char>(i % 4));
    s += std::string(6, 5);
    seeds.push_back(s);
  }
  // Degenerate shapes: empty vs non-empty, single symbols.
  seeds.push_back(std::string("\x03\x00\x05\x01\x01\x01\x01\x01", 8));
  seeds.push_back(std::string("\x02\x01\x01\x01\x00", 5));
  seeds.push_back(std::string());
  return seeds;
}
