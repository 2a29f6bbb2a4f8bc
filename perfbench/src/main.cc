// The repository benchmark.
//
//   perfbench --workload <rt-fresh|rt-longlog|sim-ladder> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <rev>] [--out-dir <dir>]
//
// Prints "stamp", "info" and "metric" lines, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any output check fails, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <rev>] [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opt;
  Stamp stamp;
  stamp.commit = "unknown";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--commit") {
        stamp.commit = val;
      } else if (arg == "--out-dir") {
        opt.out_dir = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || opt.seconds <= 0) {
    return usage("--seed and a positive --seconds are required");
  }

  // Fixed allocator thresholds: every large block (the runtime's per-process
  // inboxes are 4 MiB each) comes from the heap and freed memory is kept,
  // so a round's set-up time does not depend on whether glibc's adaptive
  // mmap threshold happened to move in an earlier round.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest glibc accepts
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Outcome out;
  if (workload == "rt-fresh") {
    out = run_rt_fresh(opt);
  } else if (workload == "rt-longlog") {
    out = run_rt_longlog(opt);
  } else if (workload == "sim-ladder") {
    out = run_sim_ladder(opt);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  stamp.workload = workload;
  stamp.seed = opt.seed;
  stamp.seconds = opt.seconds;
  stamp.trace = opt.trace;
  stamp.derived_seeds = out.seeds;
  print_stamp(stdout, stamp);
  for (const std::string& p : out.problems) std::printf("violation %s\n", p.c_str());
  out.report.print(stdout);
  std::printf("%s\n", out.report.json(out.correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
