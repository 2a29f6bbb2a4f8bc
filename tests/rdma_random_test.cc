// Randomized property tests for the RDMA-based protocol: random contended
// workloads with global reconfigurations injected mid-stream.  Verifies
// decision uniqueness (Invariant 4), property (*) / Invariant 13 (no stale
// ACCEPT ever lands), and linearizability of small committed projections.
#include <gtest/gtest.h>

#include <map>

#include "checker/linearization.h"
#include "common/random.h"
#include "rdma/cluster.h"

namespace ratc::rdma {
namespace {

using commit::Client;
using tcs::Decision;
using tcs::Payload;

struct DriverConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_shards = 3;
  int total_txns = 200;
  int reconfigure_every = 50;  ///< global reconfiguration period (txns)
  ObjectId objects = 24;
};

class RdmaDriver {
 public:
  explicit RdmaDriver(const DriverConfig& cfg)
      : cfg_(cfg),
        cluster_({.seed = cfg.seed,
                  .num_shards = cfg.num_shards,
                  .shard_size = 2,
                  .spares_per_shard = 4,
                  .retry_timeout = 100}),
        rng_(cfg.seed ^ 0x5eed) {
    client_ = &cluster_.add_client();
    client_->on_decision = [this](TxnId t, Decision d) {
      if (d != Decision::kCommit) return;
      auto it = payloads_.find(t);
      if (it == payloads_.end()) return;
      for (const auto& w : it->second.writes) {
        versions_[w.object] = std::max(versions_[w.object], it->second.commit_version);
      }
    };
  }

  void run() {
    int since_reconfig = 0;
    for (int i = 0; i < cfg_.total_txns; ++i) {
      submit_one();
      cluster_.sim().run_until(cluster_.sim().now() + rng_.range(0, 5));
      if (++since_reconfig >= cfg_.reconfigure_every) {
        since_reconfig = 0;
        inject_failure_and_reconfigure();
      }
    }
    cluster_.sim().run_until(cluster_.sim().now() + 5000);
  }

  void verify() {
    EXPECT_EQ(cluster_.verify(), "") << "seed " << cfg_.seed;
    EXPECT_GE(client_->decided_count() * 10, payloads_.size() * 9)
        << "seed " << cfg_.seed << ": " << client_->decided_count() << "/"
        << payloads_.size() << " decided";
    if (cluster_.history().committed_txns().size() <= 25) {
      auto lin = checker::check_linearization(cluster_.history(), cluster_.certifier());
      EXPECT_TRUE(lin.ok) << lin.error;
    }
  }

 private:
  void submit_one() {
    Payload p;
    std::uint64_t n = 1 + rng_.below(3);
    Version maxv = 0;
    for (std::uint64_t j = 0; j < n; ++j) {
      ObjectId obj = rng_.below(cfg_.objects);
      if (p.reads_object(obj)) continue;
      Version v = versions_.count(obj) ? versions_[obj] : 0;
      p.reads.push_back({obj, v});
      maxv = std::max(maxv, v);
    }
    for (const auto& r : p.reads) {
      if (rng_.chance(0.6)) {
        p.writes.push_back({r.object, static_cast<Value>(rng_.below(1000))});
      }
    }
    p.commit_version = maxv + 1;

    Replica* coord = pick_coordinator();
    if (coord == nullptr) return;
    TxnId t = cluster_.next_txn_id();
    payloads_[t] = p;
    client_->certify_colocated(*coord, t, p);
  }

  Replica* pick_coordinator() {
    for (int attempts = 0; attempts < 20; ++attempts) {
      ShardId s = static_cast<ShardId>(rng_.below(cfg_.num_shards));
      configsvc::ShardConfig cfg = cluster_.current_config(s);
      if (cfg.members.empty()) continue;
      ProcessId pid = cfg.members[rng_.below(cfg.members.size())];
      if (cluster_.sim().crashed(pid)) continue;
      Replica& r = cluster_.replica_by_pid(pid);
      if (r.epoch() != cfg.epoch) continue;
      return &r;
    }
    return nullptr;
  }

  void inject_failure_and_reconfigure() {
    // Crash one follower somewhere, then reconfigure GLOBALLY from a
    // surviving member (the only option the safe protocol has).
    ShardId s = static_cast<ShardId>(rng_.below(cfg_.num_shards));
    configsvc::ShardConfig cfg = cluster_.current_config(s);
    std::vector<ProcessId> alive;
    for (ProcessId m : cfg.members) {
      if (!cluster_.sim().crashed(m)) alive.push_back(m);
    }
    if (alive.size() <= 1) return;
    ProcessId victim = alive[rng_.below(alive.size())];
    cluster_.crash(victim);
    ProcessId survivor = victim == alive[0] ? alive[1] : alive[0];
    Epoch before = cluster_.current_epoch();
    cluster_.replica_by_pid(survivor).reconfigure();
    cluster_.await_active_epoch(before + 1, 500000);
  }

  DriverConfig cfg_;
  Cluster cluster_;
  Rng rng_;
  Client* client_ = nullptr;
  std::map<TxnId, Payload> payloads_;
  std::map<ObjectId, Version> versions_;
};

class RdmaRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RdmaRandom, FailureFreeWorkloadIsCorrect) {
  DriverConfig cfg;
  cfg.seed = GetParam();
  cfg.reconfigure_every = 1 << 30;
  RdmaDriver driver(cfg);
  driver.run();
  driver.verify();
}

TEST_P(RdmaRandom, GlobalReconfigurationChurnIsCorrect) {
  DriverConfig cfg;
  cfg.seed = GetParam() * 13 + 3;
  cfg.total_txns = 180;
  cfg.reconfigure_every = 60;
  RdmaDriver driver(cfg);
  driver.run();
  driver.verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdmaRandom, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ratc::rdma
