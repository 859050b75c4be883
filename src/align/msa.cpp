#include "align/msa.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::align {

std::vector<Symbol> MultipleAlignment::consensus() const {
  std::vector<Symbol> out;
  for (std::size_t c = 0; c < column_count(); ++c) {
    std::map<Symbol, std::size_t> votes;
    for (const auto& row : rows_)
      if (row[c] != kGap) ++votes[row[c]];
    if (votes.empty()) continue;
    auto best = votes.begin();
    for (auto it = votes.begin(); it != votes.end(); ++it)
      if (it->second > best->second) best = it;
    out.push_back(best->first);
  }
  return out;
}

namespace {

/// Orders pairwise-alignment memo keys by member-sequence content (the
/// keys point into the caller's `sequences`, which outlives the memo).
struct SequenceLess {
  bool operator()(const std::vector<Symbol>* x,
                  const std::vector<Symbol>* y) const {
    return *x < *y;
  }
};

using PairMemo =
    std::map<const std::vector<Symbol>*, PairAlignment, SequenceLess>;

/// Merge member `s`'s centre alignment into the running MSA state: fold
/// any new centre gaps into every already-placed row ("once a gap, always
/// a gap"), then place the member's gapped row. Returns true when the
/// centre gained gaps (later members must re-align).
bool merge_member(const PairAlignment& pa, std::size_t s,
                  std::vector<Symbol>& master,
                  std::vector<std::vector<Symbol>>& rows) {
  bool master_changed = false;
  if (pa.a != master) {
    std::vector<std::size_t> insert_before;  // positions in old master
    std::size_t mi = 0;
    for (std::size_t c = 0; c < pa.a.size(); ++c) {
      if (mi < master.size() && pa.a[c] == master[mi]) {
        ++mi;
      } else {
        PT_ASSERT(pa.a[c] == kGap, "centre symbols must be preserved");
        insert_before.push_back(mi);
      }
    }
    PT_ASSERT(mi == master.size(), "centre alignment dropped symbols");

    for (auto& row : rows) {
      if (row.empty()) continue;
      std::vector<Symbol> expanded;
      expanded.reserve(pa.a.size());
      std::size_t gap_cursor = 0;
      for (std::size_t i = 0; i <= master.size(); ++i) {
        while (gap_cursor < insert_before.size() &&
               insert_before[gap_cursor] == i) {
          expanded.push_back(kGap);
          ++gap_cursor;
        }
        if (i < master.size()) expanded.push_back(row[i]);
      }
      row = std::move(expanded);
    }
    master = pa.a;
    master_changed = true;
  }
  rows[s] = pa.b;
  return master_changed;
}

}  // namespace

MultipleAlignment star_align(const std::vector<std::vector<Symbol>>& sequences,
                             const AlignmentScores& scores, ThreadPool* pool,
                             AlignmentEngine engine) {
  PT_SPAN("star_align");
  MultipleAlignment out;
  if (sequences.empty()) return out;

  // Centre = longest sequence; SPMD applications make every task's sequence
  // nearly identical, so any centre works, but the longest minimises gaps.
  std::size_t centre = 0;
  for (std::size_t s = 1; s < sequences.size(); ++s)
    if (sequences[s].size() > sequences[centre].size()) centre = s;

  // `master` is the progressively gapped centre sequence; rows hold each
  // input sequence gapped to master's current column structure.
  std::vector<Symbol> master = sequences[centre];
  std::vector<std::vector<Symbol>> rows(sequences.size());
  rows[centre] = master;

  std::vector<std::size_t> pending;
  pending.reserve(sequences.size() - 1);
  for (std::size_t s = 0; s < sequences.size(); ++s)
    if (s != centre) pending.push_back(s);

  // Pairwise alignments against the *current* master, keyed by member
  // sequence content; a merge that re-gaps the master invalidates them all.
  PairMemo memo;
  const bool parallel = pool != nullptr && pool->thread_count() > 1;
  double nw_calls = 0.0;

  // Speculation window: how many members ahead of the merge point are
  // aligned against the current master per round. A merge that re-gaps the
  // master discards the computed-but-unmerged tail of the batch, so the
  // window starts at the pool width and resets there after every master
  // change (bounding waste per change), then doubles on fully-accepted
  // batches (master changes cluster in the early merges; the stable tail
  // gets full parallelism).
  const std::size_t min_window = parallel ? pool->thread_count() : 1;
  std::size_t window = min_window;

  std::size_t next = 0;
  while (next < pending.size()) {
    const std::size_t batch_end =
        std::min(pending.size(), next + window);

    std::vector<const std::vector<Symbol>*> missing;
    for (std::size_t p = next; p < batch_end; ++p) {
      const std::vector<Symbol>* seq = &sequences[pending[p]];
      if (memo.count(seq)) continue;
      // Reserve the key now so a duplicate later in the batch dedups.
      if (memo.emplace(seq, PairAlignment{}).second) missing.push_back(seq);
    }
    nw_calls += static_cast<double>(missing.size());
    if (parallel) {
      const std::vector<const char*> here = obs::current_span_path();
      pool->parallel_for(0, missing.size(), [&](std::size_t u) {
        obs::SpanContext ctx(here);
        memo.find(missing[u])->second =
            needleman_wunsch(master, *missing[u], scores, engine);
      });
    } else {
      for (const std::vector<Symbol>* seq : missing)
        memo.find(seq)->second = needleman_wunsch(master, *seq, scores,
                                                  engine);
    }

    // Accept in input order; the first merge that re-gaps the master makes
    // the rest of the batch stale — they re-align next round.
    bool master_changed = false;
    while (next < batch_end && !master_changed) {
      const std::size_t s = pending[next];
      master_changed = merge_member(memo.at(&sequences[s]), s, master, rows);
      ++next;
    }
    if (master_changed) {
      memo.clear();
      window = min_window;
    } else {
      window = std::min(window * 2, pending.size());
    }
  }

  if (obs::enabled()) {
    PT_COUNTER("star_align_members",
               static_cast<double>(sequences.size() - 1));
    PT_COUNTER("star_align_pairwise", nw_calls);
  }

  // Rows aligned before later master expansions were already expanded in the
  // loop; rows aligned after are at full length. Verify and emit.
  for (auto& row : rows) {
    PT_ASSERT(row.size() == master.size() || row.empty(),
              "row/master length mismatch after merge");
    if (row.empty()) row.assign(master.size(), kGap);
  }
  out.rows() = std::move(rows);
  return out;
}

}  // namespace perftrack::align
