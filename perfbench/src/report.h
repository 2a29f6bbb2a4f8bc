// The benchmark's output: every metric by name with its unit, a stamp of
// the machine and build, and the one-line JSON result that ends stdout.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

/// A unit: 1 to 16 characters of letters, digits, '_', '/', '%', '.' and '-'.
bool valid_unit(const std::string& unit);

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// Records (or overwrites) a metric.  Throws std::invalid_argument on an
  /// invalid name or unit, or a value that is not finite.
  void set(const std::string& name, double value, const std::string& unit);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  double value(const std::string& name) const { return metrics_.at(name).value; }

  /// Human-readable lines, one per metric: "metric <name> <value> <unit>".
  void print(std::FILE* out) const;

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Facts that let two results be compared: machine, compiler, build type,
/// source revision and seeds.
struct Stamp {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit;  ///< passed in by run.py
  std::vector<std::pair<std::string, std::uint64_t>> derived_seeds;
};

/// Prints "stamp <key> <value>" lines: nproc, CPU model, compiler, build
/// type, commit, workload, seed and the seeds derived from it.
void print_stamp(std::FILE* out, const Stamp& stamp);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
