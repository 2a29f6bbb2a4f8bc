// The benchmark's metric catalog: every metric it reports, with its unit,
// direction, and — for per-layer metrics — the end-to-end metric and
// workload it should move.  BENCHMARK.json lists the same names and units;
// perfbench_test checks that the two agree.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  /// Per-layer only: "<end-to-end metric(s)> on <workload(s)>".
  std::string moves;
};

const std::vector<std::string>& workload_names();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Commit message types (kName in commit/messages.h) with per-type metrics.
const std::vector<std::string>& commit_message_types();

/// The unit of a catalogued metric; throws std::out_of_range otherwise.
const std::string& unit_of(const std::string& name);

}  // namespace perfbench
