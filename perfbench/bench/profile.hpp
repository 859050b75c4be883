#pragma once
// The program's own instrumentation, folded by span name.
//
// perftrack's obs layer aggregates spans into a tree (obs::collect() in
// process, `perftrackd --profile FILE` for the daemon). The benchmark needs
// per-layer totals, so it folds that tree by span name: a stage's executions
// and wall time wherever it sits in the tree. A span nested inside another
// execution of the same name is not counted twice. Times of spans run on
// pool workers are busy time summed over threads, not wall time.

#include <cstdint>
#include <map>
#include <string>

#include "obs/telemetry.hpp"

namespace perfbench {

struct StageTotals {
  double count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

struct ProgramProfile {
  std::map<std::string, StageTotals> stages;
  std::map<std::string, double> counters;
  double top_ns = 0;           ///< wall time of the top-level stages
  double unattributed_ns = 0;  ///< self time of the stages with child stages

  /// Time the program's named stages account for: the top-level stages'
  /// wall time minus the self time of every stage that has child stages,
  /// which is work inside a stage that no finer stage names. A leaf
  /// stage's time counts as named.
  double named_ns() const { return top_ns - unattributed_ns; }

  /// Wall (busy) time of `stage` in ms; 0 when it never ran.
  double stage_ms(const std::string& stage) const;
  double counter(const std::string& name) const;

  /// What happened between two cumulative reports of one process: this
  /// minus `before`. A stage whose count did not change did no work in
  /// between, so its times are 0 rather than the noise of two totals.
  ProgramProfile minus(const ProgramProfile& before) const;

  std::string json() const;
};

ProgramProfile fold(const perftrack::obs::RunReport& report);

/// Fold a run report written by `--profile` (schema perftrack-run-report).
ProgramProfile load_profile(const std::string& path);

}  // namespace perfbench
