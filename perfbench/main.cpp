// sesr_perfbench: the repository benchmark's binary (run.py builds and
// invokes it).
//
//   sesr_perfbench --workload edge_frames|tiles_remote|mixed_local
//                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints the workload's settings, every metric by name with its unit, and
// as its last stdout line one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exits 1 when any reply was not kOk or
// not bit-identical to its reference, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "core/json.h"
#include "perfbench.h"

extern char** environ;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload edge_frames|tiles_remote|mixed_local --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

/// Every run sees the same knobs: no SESR_* setting leaks in from the
/// caller's environment (so the default kernel tier and the default dist
/// window apply), kernels run single-threaded (parallelism comes from
/// requests), and the program's own tracing and op profiling stay off.
void hermetic_environment() {
  std::vector<std::string> inherited;
  for (char** entry = environ; *entry != nullptr; ++entry)
    if (std::strncmp(*entry, "SESR_", 5) == 0) {
      const char* eq = std::strchr(*entry, '=');
      inherited.emplace_back(*entry, eq != nullptr ? static_cast<size_t>(eq - *entry)
                                                   : std::strlen(*entry));
    }
  for (const std::string& name : inherited) ::unsetenv(name.c_str());
  ::setenv("SESR_NUM_THREADS", "1", 1);
  ::setenv("SESR_TRACE", "0", 1);
  ::setenv("SESR_PROFILE_OPS", "0", 1);
}

std::string result_json(const perfbench::Report& report) {
  sesr::core::JsonObjectWriter metrics;
  for (const perfbench::Metric& metric : report.metrics) {
    sesr::core::JsonObjectWriter entry;
    entry.field("value", sesr::core::json_number(metric.value));
    entry.field("unit", sesr::core::json_quote(metric.unit));
    metrics.field(metric.name.c_str(), entry.close());
  }
  sesr::core::JsonObjectWriter out;
  out.field("correct", std::string(report.correct ? "true" : "false"));
  out.field("attempted", report.attempted);
  out.field("failed", report.failed);
  out.field("metrics", metrics.close());
  return out.close();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage(argv[0]);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        args.out_dir = value;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    usage(argv[0]);
  }
  if (args.seconds < 1) usage(argv[0]);

  hermetic_environment();
  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "edge_frames") {
      report = perfbench::run_edge_frames(args);
    } else if (args.workload == "tiles_remote") {
      report = perfbench::run_tiles_remote(args);
    } else if (args.workload == "mixed_local") {
      report = perfbench::run_mixed_local(args);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sesr_perfbench: %s\n", error.what());
    return 1;
  }

  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("%s metrics (%s run):\n", args.workload.c_str(), args.trace ? "traced" : "untraced");
  for (const perfbench::Metric& metric : report.metrics)
    std::printf("  %-34s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  std::printf("%s\n", result_json(report).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
