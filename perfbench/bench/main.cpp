// perfbench — perftrack's end-to-end benchmark program.
//
//   perfbench --workload table2-batch|live-append|dashboard-read
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--workdir DIR] [--span-dump FILE]
//
// Works inside --workdir (created), which it leaves holding only what it
// was asked to keep. Prints run metadata and a metric table, then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Exit status: 0 when every output check
// passed, 1 when one failed, 2 when the run could not complete (no result
// line). perfbench/run.py builds it and runs it; see README.md.

#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/spans.hpp"
#include "bench/workloads.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload table2-batch|live-append|dashboard-read\n"
      "                 [--seed N] [--seconds S] [--trace 0|1]\n"
      "                 [--workdir DIR] [--span-dump FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start_ns = perfbench::now_ns();
  options.daemon = PERFBENCH_DAEMON;
  std::string workdir = ".";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--workdir") workdir = value;
      else if (flag == "--span-dump") options.span_dump = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.seconds < 0) return usage();
  if (!options.span_dump.empty())
    options.span_dump = std::filesystem::absolute(options.span_dump).string();

  // Die with the process that started this one (run.py), and with it the
  // daemon, which dies with this process in turn.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  try {
    std::filesystem::create_directories(workdir);
    std::filesystem::current_path(workdir);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "setup_runs=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                perfbench::kSetupRuns);
    std::printf("nproc=%u build_type=%s\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    perfbench::Outcome outcome;
    if (options.workload == "table2-batch")
      outcome = perfbench::run_table2_batch(options);
    else if (options.workload == "live-append")
      outcome = perfbench::run_live_append(options);
    else if (options.workload == "dashboard-read")
      outcome = perfbench::run_dashboard_read(options);
    else
      return usage();

    for (const std::string& line : outcome.info) std::printf("%s\n", line.c_str());
    for (const std::string& line : outcome.problems)
      std::fprintf(stderr, "perfbench: check failed: %s\n", line.c_str());
    std::printf("metrics:\n%s", outcome.metrics.table().c_str());
    std::printf("%s\n", outcome.metrics
                            .result_line(outcome.correct(), outcome.attempted,
                                         outcome.failed)
                            .c_str());
    return outcome.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
