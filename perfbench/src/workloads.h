// The benchmark's workloads.  Each runs for about `seconds`, checks the
// program's outputs and fills a Report: the end-to-end metrics when
// untraced, the per-layer metrics when traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the traced run's span file (must exist).
  std::string out_dir = ".";
};

struct Outcome {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per violated check.
  std::vector<std::string> problems;
  /// Seeds derived from the workload seed, for the stamp.
  std::vector<std::pair<std::string, std::uint64_t>> seeds;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

Outcome run_rt_fresh(const RunOptions& opt);
Outcome run_rt_longlog(const RunOptions& opt);
Outcome run_sim_ladder(const RunOptions& opt);

/// Sets every per-layer metric the workload did not measure to 0, so every
/// traced run reports the full list (a layer a workload does not exercise
/// reads 0).
void fill_unmeasured_layers(Report& report);

/// Records a catalogued metric under its catalogued unit.
void put(Report& report, const std::string& name, double value);

}  // namespace perfbench
