// Tests of the benchmark's own machinery: percentiles, latency accounting
// from due times, FIFO matching in the trace tap, generator determinism,
// and the metric catalog against BENCHMARK.json.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "catalog.h"
#include "client_load.h"
#include "payload_gen.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

// --- percentiles --------------------------------------------------------------

TEST(Percentiles, NearestRankIsCeilOfQTimesN) {
  EXPECT_EQ(nearest_rank(0.5, 10), 5u);
  EXPECT_EQ(nearest_rank(0.5, 11), 6u);
  EXPECT_EQ(nearest_rank(0.99, 100), 99u);
  EXPECT_EQ(nearest_rank(0.95, 20), 19u);  // exact product, no rounding up
  EXPECT_EQ(nearest_rank(0.01, 10), 1u);
  EXPECT_EQ(nearest_rank(1.0, 7), 7u);
}

TEST(Percentiles, ValuesOfSortedSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile({3, 1, 2}, 0.5), 2);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // lower middle: a measured value
}

TEST(Percentiles, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(0.99, 1000), 10u);
  EXPECT_EQ(highest_supported(1000), 0.99);
  EXPECT_EQ(highest_supported(999), 0.95);  // p99 would leave only 9 beyond
  EXPECT_EQ(highest_supported(10000), 0.999);
  EXPECT_EQ(highest_supported(200), 0.95);
  EXPECT_EQ(highest_supported(20), 0.5);
  EXPECT_EQ(highest_supported(19), 0);  // even the median has only 9 beyond
  // The reported tail never claims more than the sample supports.
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(tail_percentile(v, 0.99), 190);  // p95 of 200
}

// --- latency from the due time ---------------------------------------------------

TEST(DueTime, ClientsInterleaveToTheTotalRate) {
  // 4 clients at 40,000 txn/s together: one transaction every 25 us.
  const std::int64_t start = 1'000'000;
  std::set<std::int64_t> dues;
  for (std::size_t client = 0; client < 4; ++client) {
    for (std::size_t k = 0; k < 10; ++k) dues.insert(due_ns(start, 40000, 4, client, k));
  }
  ASSERT_EQ(dues.size(), 40u);
  std::int64_t prev = -1;
  for (std::int64_t d : dues) {
    if (prev >= 0) {
      EXPECT_EQ(d - prev, 25'000);
    }
    prev = d;
  }
  EXPECT_EQ(*dues.begin(), start);
}

TEST(DueTime, LatencyCountsGeneratorLag) {
  // Due at 1 ms, sent 300 us late, decided 500 us after the send.
  DueAccount a = account_from_due(1'000'000, 1'300'000, 1'800'000);
  EXPECT_DOUBLE_EQ(a.lag_us, 300);
  EXPECT_DOUBLE_EQ(a.lat_us, 800);  // not 500: the stall counts
  DueAccount on_time = account_from_due(1'000'000, 1'000'000, 1'500'000);
  EXPECT_DOUBLE_EQ(on_time.lag_us, 0);
  EXPECT_DOUBLE_EQ(on_time.lat_us, 500);
}

// --- FIFO matching in the trace tap -----------------------------------------------

TEST(ChannelMatcher, MatchesPerChannelInFifoOrder) {
  ChannelMatcher m;
  m.on_send(1, 2, 10);
  m.on_send(1, 3, 11);
  m.on_send(1, 2, 12);
  m.on_send(2, 1, 13);  // the reverse direction is its own channel
  EXPECT_EQ(m.on_deliver(1, 3), 11);
  EXPECT_EQ(m.on_deliver(1, 2), 10);
  EXPECT_EQ(m.on_deliver(2, 1), 13);
  EXPECT_EQ(m.on_deliver(1, 2), 12);
  EXPECT_FALSE(m.on_deliver(1, 2).has_value());
  EXPECT_EQ(m.pending(), 0u);
}

TEST(ChannelMatcher, DropRemovesTheLatestSend) {
  ChannelMatcher m;
  m.on_send(1, 2, 10);
  m.on_send(1, 2, 20);
  m.on_drop(1, 2);  // the send of 20 never arrives
  EXPECT_EQ(m.on_deliver(1, 2), 10);
  EXPECT_FALSE(m.on_deliver(1, 2).has_value());
}

TEST(TraceTap, WaitsAndSpansFromSendAndDelivery) {
  TraceTap tap;
  ratc::commit::Prepare p;
  p.txn = 64;  // a sampled transaction
  ratc::sim::AnyMessage msg(p);
  tap.on_send(0, 100, 200, msg);
  tap.on_deliver(0, 100, 200, msg);
  ASSERT_EQ(tap.inbox_wait_us().size(), 1u);
  EXPECT_GE(tap.inbox_wait_us()[0], 0);
  ASSERT_EQ(tap.spans().size(), 1u);
  EXPECT_EQ(tap.spans()[0].txn, 64u);
  EXPECT_STREQ(tap.spans()[0].type, "PREPARE");
  EXPECT_EQ(tap.traffic().at("PREPARE").msgs, 1u);
  EXPECT_EQ(txn_of(msg), ratc::TxnId{64});
}

// --- generator ---------------------------------------------------------------------

TEST(PayloadGen, SameSeedSameStream) {
  VersionView v1(1000), v2(1000);
  PayloadGen a(42, v1, nullptr), b(42, v2, nullptr), c(43, v1, nullptr);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    ratc::tcs::Payload pa = a.next(), pb = b.next(), pc = c.next();
    EXPECT_EQ(pa, pb);
    EXPECT_TRUE(pa.well_formed());
    differs = differs || !(pa == pc);
  }
  EXPECT_TRUE(differs);
  ratc::Zipfian zipf(1000, 0.99);
  PayloadGen za(7, v1, &zipf), zb(7, v2, &zipf);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(za.next_read_set(), zb.next_read_set());
}

TEST(PayloadGen, ReadsTheSharedCommittedView) {
  VersionView view(1);  // one key: every payload touches object 0
  PayloadGen gen(1, view, nullptr);
  ratc::tcs::Payload first = gen.next();
  EXPECT_EQ(first.reads.at(0).version, 0u);
  ratc::tcs::Payload w;
  w.reads = {{0, 0}};
  w.writes = {{0, 5}};
  w.commit_version = 9;
  view.observe_commit(w);
  view.observe_commit(first);  // a lower commit version never lowers the view
  EXPECT_EQ(view.read(0), 9u);
  ratc::tcs::Payload next = gen.next();
  EXPECT_EQ(next.reads.at(0).version, 9u);
  EXPECT_EQ(next.commit_version, 10u);
}

// --- metric names -------------------------------------------------------------------

TEST(MetricNames, ValidityRules) {
  EXPECT_TRUE(valid_metric_name("commit_tps"));
  EXPECT_TRUE(valid_metric_name("commit.handler_us.PREPARE_BATCH"));
  EXPECT_TRUE(valid_metric_name("baseline-coop.sim_s"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("µs"));
  EXPECT_FALSE(valid_unit(std::string(17, 'a')));
  Report r;
  EXPECT_THROW(r.set("bad name", 1, "s"), std::invalid_argument);
  EXPECT_THROW(r.set("ok", 1, "µs"), std::invalid_argument);
  EXPECT_THROW(r.set("ok", 0.0 / 0.0, "s"), std::invalid_argument);
}

TEST(MetricNames, CatalogIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(valid_unit(d.unit)) << d.name;
      EXPECT_TRUE(d.better == "higher" || d.better == "lower") << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    }
  }
  EXPECT_LE(per_layer_metrics().size(), 128u);
  EXPECT_LE(end_to_end_metrics().size(), 16u);
}

/// (name, unit, better) of the metric objects in the JSON array that
/// follows `key`.
std::vector<std::string> metrics_in(const std::string& json, const std::string& key) {
  std::size_t at = json.find("\"" + key + "\"");
  std::string section = json.substr(at, json.find(']', at) - at);
  std::vector<std::string> out;
  std::regex re("\"name\": *\"([^\"]+)\",\\s*\"unit\": *\"([^\"]+)\",\\s*\"better\": *\"([^\"]+)\"");
  for (std::sregex_iterator it(section.begin(), section.end(), re), e; it != e; ++it) {
    out.push_back((*it)[1].str() + " " + (*it)[2].str() + " " + (*it)[3].str());
  }
  return out;
}

std::vector<std::string> catalogued(const std::vector<MetricDef>& defs) {
  std::vector<std::string> out;
  for (const MetricDef& d : defs) out.push_back(d.name + " " + d.unit + " " + d.better);
  return out;
}

TEST(MetricNames, BenchmarkJsonListsTheCatalog) {
  std::ifstream in(PERFBENCH_JSON_PATH);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON_PATH;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_EQ(metrics_in(json, "end_to_end"), catalogued(end_to_end_metrics()));
  EXPECT_EQ(metrics_in(json, "per_layer"), catalogued(per_layer_metrics()));
  std::vector<std::string> workloads;
  std::size_t at = json.find("\"workloads\"");
  std::string section = json.substr(at, json.find(']', at) - at);
  std::regex re("\"name\": *\"([^\"]+)\"");
  for (std::sregex_iterator it(section.begin(), section.end(), re), e; it != e; ++it) {
    workloads.push_back((*it)[1]);
  }
  EXPECT_EQ(workloads, workload_names());
}

}  // namespace
}  // namespace perfbench
