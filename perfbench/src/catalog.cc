#include "catalog.h"

#include <map>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rt-fresh", "rt-longlog", "sim-ladder"};
  return names;
}

const std::vector<std::string>& commit_message_types() {
  static const std::vector<std::string> types = {
      "CERTIFY",     "CERTIFY_BATCH",    "PREPARE",      "PREPARE_BATCH",
      "PREPARE_ACK", "PREPARE_ACK_BATCH", "ACCEPT",      "ACCEPT_BATCH",
      "ACCEPT_ACK",  "ACCEPT_ACK_BATCH", "DECISION",     "DECISION_CLIENT"};
  return types;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"cpu_us_per_txn", "us", "lower", ""},
      {"lat_p50_us", "us", "lower", ""},
      {"committed_frac", "ratio", "higher", ""},
      {"msgs_per_txn", "msgs", "lower", ""},
      {"setup_s", "s", "lower", ""},
      {"rss_mb", "MiB", "lower", ""},
      {"read_p50_us", "us", "lower", ""},
  };
  return defs;
}

namespace {

std::vector<MetricDef> build_per_layer() {
  const std::string rt_both = " on rt-fresh and rt-longlog";
  std::vector<MetricDef> d = {
      // End-to-end figures that are zero or undefined on some workload
      // (BENCHMARK.json's end-to-end metrics must be non-zero everywhere).
      {"failed_frac", "ratio", "lower", "failed_frac on sim-ladder (refused reads)"},
      // Wall-clock throughput and the tails: on a shared host they follow
      // the other tenants' load more than the code's (calibrate.h), so they
      // are reported here, without a bound.
      {"commit_tps", "1/s", "higher", "commit_tps on all workloads"},
      {"lat_p99_us", "us", "lower", "lat_p99_us on all workloads"},
      {"read_p99_us", "us", "lower", "read_p99_us on all workloads"},
      {"sim_txn_per_s", "1/s", "higher", "sim_txn_per_s on sim-ladder"},
      {"lat_p50_ticks", "ticks", "lower", "lat_p50_ticks on sim-ladder"},
      {"lat_p99_ticks", "ticks", "lower", "lat_p99_ticks on sim-ladder"},
      {"unavail_ticks", "ticks", "lower", "unavail_ticks on sim-ladder"},
      {"trace_overhead_frac", "ratio", "lower", "commit_tps of the traced run"},
      // rt: ThreadedRuntime and Inbox.
      {"rt.inbox_wait_us.p50", "us", "lower", "lat_p50_us, commit_tps on rt-fresh; less on rt-longlog"},
      {"rt.inbox_wait_us.p99", "us", "lower", "lat_p99_us on rt-fresh; less on rt-longlog"},
      {"rt.worker_busy_frac", "ratio", "lower", "cpu_us_per_txn" + rt_both},
      {"rt.handler_us.mean", "us", "lower", "cpu_us_per_txn, lat_p50_us" + rt_both},
      {"rt.timer_us.mean", "us", "lower", "rt.gen_lag_us.p99 on rt-fresh (open-loop pacer)"},
      {"rt.setup_ms.round", "ms", "lower", "setup_s on rt-fresh"},
      {"rt.gen_lag_us.p99", "us", "lower", "lat_p99_us on rt-fresh (traced open-loop rounds)"},
      // sim: envelope, simulator, network, tracer.
      {"sim.envelope_ns", "ns", "lower", "cpu_us_per_txn on rt-fresh; sim_txn_per_s on sim-ladder"},
      {"sim.bytes_per_txn", "B", "lower", "cpu_us_per_txn on rt-fresh and rt-longlog"},
      {"sim.events_per_txn", "events", "lower", "sim_txn_per_s on sim-ladder"},
      {"sim.event_ns", "ns", "lower", "sim_txn_per_s on sim-ladder"},
  };
  for (const std::string& t : commit_message_types()) {
    const bool prepare = t.rfind("PREPARE", 0) == 0;
    const std::string where = prepare ? " on rt-longlog (dominant) and rt-fresh" : rt_both;
    d.push_back({"commit.handler_us." + t, "us", "lower", "cpu_us_per_txn, lat_p50_us" + where});
    d.push_back({"commit.handler_share." + t, "ratio", "lower", "cpu_us_per_txn" + where});
    d.push_back({"commit.msgs_per_txn." + t, "msgs", "lower", "msgs_per_txn" + rt_both});
  }
  const std::vector<MetricDef> rest = {
      {"commit.leader_busy_frac", "ratio", "lower", "cpu_us_per_txn, lat_p50_us" + rt_both},
      {"commit.log_entries", "entries", "lower", "cpu_us_per_txn, setup_s on rt-longlog"},
      {"commit.slot_of_ns.1k", "ns", "lower", "cpu_us_per_txn on rt-fresh"},
      {"commit.slot_of_ns.10k", "ns", "lower", "cpu_us_per_txn, setup_s on rt-longlog"},
      {"commit.slot_of_ns.100k", "ns", "lower", "cpu_us_per_txn, setup_s on rt-longlog"},
      {"commit.vote_ns.1k", "ns", "lower", "cpu_us_per_txn on rt-fresh"},
      {"commit.vote_ns.10k", "ns", "lower", "cpu_us_per_txn, committed_frac on rt-longlog"},
      {"commit.vote_ns.100k", "ns", "lower", "cpu_us_per_txn, committed_frac on rt-longlog"},
      {"tcs.certify_ns", "ns", "lower", "cpu_us_per_txn on rt-longlog (skewed); less on rt-fresh"},
      {"tcs.project_ns", "ns", "lower", "cpu_us_per_txn" + rt_both},
      {"store.read_watermark_ns", "ns", "lower", "read_p50_us, read_p99_us on all workloads"},
      {"store.snapshot_read_ns", "ns", "lower", "read_p50_us on all workloads"},
      {"store.snapshot_apply_ns", "ns", "lower", "cpu_us_per_txn on all; sim_txn_per_s on sim-ladder"},
      {"store.reads_served_frac", "ratio", "higher", "failed_frac on sim-ladder"},
      {"checker.history_s", "s", "lower", "untimed on rt-fresh and rt-longlog"},
      {"checker.verify_s", "s", "lower", "sim_txn_per_s on sim-ladder"},
      {"checker.snapshot_s", "s", "lower", "sim_txn_per_s on sim-ladder"},
      {"recon.attempts", "count", "lower", "unavail_ticks on sim-ladder"},
      {"recon.probes", "count", "lower", "unavail_ticks on sim-ladder"},
      {"recon.cas_losses", "count", "lower", "unavail_ticks on sim-ladder"},
      {"recon.epoch_ticks", "ticks", "lower", "unavail_ticks on sim-ladder"},
      {"term.blocked", "count", "lower", "committed_frac, failed_frac on sim-ladder"},
      {"term.resolved", "count", "higher", "committed_frac on sim-ladder"},
      {"rdma.fabric_writes_per_txn", "writes", "lower", "msgs_per_txn, sim_txn_per_s on sim-ladder"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  for (const char* stack : {"commit", "rdma", "baseline-coop", "paxos-commit"}) {
    const std::string s = stack;
    d.push_back({s + ".sim_s", "s", "lower", "sim_txn_per_s on sim-ladder"});
    d.push_back({s + ".msgs_per_txn", "msgs", "lower", "msgs_per_txn on sim-ladder"});
    d.push_back({s + ".lat_p50_ticks", "ticks", "lower", "lat_p50_ticks on sim-ladder"});
    d.push_back({s + ".committed_frac", "ratio", "higher", "committed_frac on sim-ladder"});
  }
  return d;
}

}  // namespace

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

const std::string& unit_of(const std::string& name) {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> m;
    for (const MetricDef& d : end_to_end_metrics()) m[d.name] = d.unit;
    for (const MetricDef& d : per_layer_metrics()) m[d.name] = d.unit;
    return m;
  }();
  return units.at(name);
}

void put(Report& report, const std::string& name, double value) {
  report.set(name, value, unit_of(name));
}

void fill_unmeasured_layers(Report& report) {
  for (const MetricDef& d : per_layer_metrics()) {
    if (!report.has(d.name)) report.set(d.name, 0, d.unit);
  }
}

}  // namespace perfbench
