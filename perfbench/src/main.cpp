// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of the traced
// run with --trace 1. Diagnostics go to stderr. Exit code 0 on a completed
// run (whatever its verdict), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<churn-steady|churn-burst|classed-million|packet-sim> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0) {
        return usage("bad --seconds (0 < s <= 120)");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Result result;
  try {
    if (options.workload == "churn-steady") {
      perfbench::run_churn_steady(options, result);
    } else if (options.workload == "churn-burst") {
      perfbench::run_churn_burst(options, result);
    } else if (options.workload == "classed-million") {
      perfbench::run_classed_million(options, result);
    } else if (options.workload == "packet-sim") {
      perfbench::run_packet_sim(options, result);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  perfbench::print_result(result);
  return 0;
}
