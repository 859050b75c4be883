#pragma once
// The benchmark's input: the ten Table 2 studies, simulated from the seed
// and written as .ptt files, plus the serial reference outputs every
// workload checks against.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "tracking/session.hpp"

namespace perfbench {

struct CorpusStudy {
  std::string name;
  perftrack::cluster::ClusteringParams clustering;
  std::vector<std::string> paths;  ///< .ptt files in sequence order
  std::vector<std::string> texts;  ///< their bytes, when kept
};

struct Corpus {
  std::vector<CorpusStudy> studies;
  std::uint64_t experiments = 0;
  std::uint64_t bursts = 0;
  std::uint64_t bytes = 0;  ///< .ptt bytes written
  double generate_ms = 0;   ///< sim::all_studies
  double write_ms = 0;      ///< write_trace plus the file writes
};

/// Simulate the Table 2 studies with `seed` as sim::StudyOptions::
/// seed_offset and write one .ptt per experiment under `dir` (created).
/// `keep_texts` keeps the bytes for workloads that send traces inline.
Corpus make_corpus(std::uint64_t seed, const std::string& dir,
                   bool keep_texts);

/// The configuration `perftrack track` builds for a study: the study's
/// clustering and default tracking with `threads` workers (0 = auto), no
/// frame cache.
perftrack::tracking::SessionConfig session_config(const CorpusStudy& study,
                                                  std::size_t threads);

/// Reference outputs of one study: exactly describe_tracking() and
/// trends_csv() of a serial (--threads 1) session over its .ptt files.
struct Reference {
  std::string regions;
  std::string trends;
};

std::vector<Reference> compute_reference(const Corpus& corpus);

/// FNV-1a (store::fnv1a64) over the bytes of every .ptt file, in study and
/// sequence order.
std::uint64_t corpus_digest(const Corpus& corpus);

/// Digest of every reference output, in study order.
std::uint64_t reference_digest(const std::vector<Reference>& reference);

std::string hex64(std::uint64_t value);

}  // namespace perfbench
