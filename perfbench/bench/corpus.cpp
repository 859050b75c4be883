#include "bench/corpus.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench/spans.hpp"
#include "common/error.hpp"
#include "sim/studies.hpp"
#include "store/serialize.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"

namespace perfbench {

namespace pt = perftrack;

Corpus make_corpus(std::uint64_t seed, const std::string& dir,
                   bool keep_texts) {
  std::filesystem::create_directories(dir);
  Corpus corpus;

  const std::int64_t t0 = now_ns();
  std::vector<pt::sim::Study> studies =
      pt::sim::all_studies({.seed_offset = seed});
  const std::int64_t t1 = now_ns();

  for (std::size_t s = 0; s < studies.size(); ++s) {
    CorpusStudy out;
    out.name = studies[s].name;
    out.clustering = studies[s].clustering;
    for (std::size_t k = 0; k < studies[s].traces.size(); ++k) {
      const pt::trace::Trace& trace = *studies[s].traces[k];
      std::ostringstream text;
      pt::trace::write_trace(text, trace);
      std::string bytes = std::move(text).str();
      const std::string path =
          dir + "/s" + std::to_string(s) + "-" + std::to_string(k) + ".ptt";
      std::ofstream file(path, std::ios::binary);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      file.close();
      if (!file) throw pt::IoError("cannot write " + path);

      corpus.bytes += bytes.size();
      corpus.bursts += trace.burst_count();
      ++corpus.experiments;
      out.paths.push_back(path);
      if (keep_texts) out.texts.push_back(std::move(bytes));
    }
    corpus.studies.push_back(std::move(out));
  }
  studies.clear();  // the in-memory traces are not part of any workload
  const std::int64_t t2 = now_ns();

  corpus.generate_ms = static_cast<double>(t1 - t0) / 1e6;
  corpus.write_ms = static_cast<double>(t2 - t1) / 1e6;
  return corpus;
}

pt::tracking::SessionConfig session_config(const CorpusStudy& study,
                                           std::size_t threads) {
  pt::tracking::SessionConfig config;
  config.clustering = study.clustering;
  config.tracking.threads = threads;
  return config;
}

std::vector<Reference> compute_reference(const Corpus& corpus) {
  std::vector<Reference> out;
  for (const CorpusStudy& study : corpus.studies) {
    pt::tracking::TrackingSession session(session_config(study, 1));
    for (const std::string& path : study.paths)
      session.append_experiment(std::make_shared<const pt::trace::Trace>(
          pt::trace::load_trace(path)));
    const pt::tracking::TrackingResult result = session.retrack();
    out.push_back({pt::tracking::describe_tracking(result),
                   pt::tracking::trends_csv(result)});
  }
  return out;
}

std::uint64_t corpus_digest(const Corpus& corpus) {
  std::uint64_t hash = pt::store::fnv1a64({});  // the offset basis
  for (const CorpusStudy& study : corpus.studies)
    for (const std::string& path : study.paths) {
      std::ifstream file(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << file.rdbuf();
      if (!file) throw pt::IoError("cannot read " + path);
      hash = pt::store::fnv1a64(bytes.str(), hash);
    }
  return hash;
}

std::uint64_t reference_digest(const std::vector<Reference>& reference) {
  std::uint64_t hash = pt::store::fnv1a64({});
  for (const Reference& r : reference) {
    hash = pt::store::fnv1a64(r.regions, hash);
    hash = pt::store::fnv1a64(r.trends, hash);
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
