// Property tests for the Multi-Paxos substrate: agreement and log
// convergence under randomized crash/election churn and random delays.
// The replicated configuration service and the 2PC baseline both stand on
// this module, so it gets its own adversarial sweep.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "harness/paxos_host.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ratc::paxos {
namespace {

class ChaosHarness {
 public:
  ChaosHarness(std::uint64_t seed, std::size_t n, bool exponential)
      : sim_(seed),
        net_(sim_, exponential ? sim::Network::exponential_delay_options(4.0)
                               : sim::Network::unit_delay_options()),
        rng_(seed ^ 0xc0ffee),
        hosts_(harness::spawn_paxos_group(net_.runtime(), n)) {}

  void run_chaos(int commands, int crash_budget) {
    int next_value = 0;
    int crashes = 0;
    while (next_value < commands) {
      // Submit a small burst at the current leader (or any alive replica —
      // forwarding must handle it).
      std::size_t idx = pick_alive();
      for (int j = 0; j < 3 && next_value < commands; ++j) {
        hosts_[idx]->submit(next_value++);
      }
      sim_.run_until(sim_.now() + rng_.range(5, 40));
      // Occasionally crash the current leader (keeping a majority) and
      // elect a random survivor.
      if (crashes < crash_budget && rng_.chance(0.3)) {
        std::size_t leader = SIZE_MAX;
        for (std::size_t i = 0; i < hosts_.size(); ++i) {
          if (!sim_.crashed(hosts_[i]->id()) && hosts_[i]->paxos().is_leader()) leader = i;
        }
        if (leader != SIZE_MAX && alive_count() > majority()) {
          sim_.crash(hosts_[leader]->id());
          ++crashes;
          hosts_[pick_alive()]->paxos().start_election();
          sim_.run_until(sim_.now() + 200);
        }
      }
    }
    // Give elections/retries time to settle, then drain.
    for (int rounds = 0; rounds < 5; ++rounds) {
      sim_.run();
      // A final election nudge if no leader survived with pending backlog.
      hosts_[pick_alive()]->paxos().start_election();
      sim_.run();
    }
  }

  /// All alive replicas applied the same sequence; no value twice.
  void verify(int commands) {
    const std::vector<int>* reference = nullptr;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (sim_.crashed(hosts_[i]->id())) continue;
      if (reference == nullptr) {
        reference = &hosts_[i]->applied();
      } else {
        EXPECT_EQ(hosts_[i]->applied(), *reference) << "replica " << i << " diverged";
      }
    }
    ASSERT_NE(reference, nullptr);
    std::set<int> unique(reference->begin(), reference->end());
    EXPECT_EQ(unique.size(), reference->size()) << "duplicate application";
    // Liveness is best-effort without client retry: commands buffered at a
    // crashed leader (or forwarded to a stale leader hint) are legitimately
    // lost.  Agreement above is the safety property; here we only require
    // that churn didn't wedge the group entirely.
    EXPECT_GE(reference->size() * 2, static_cast<std::size_t>(commands));
  }

 private:
  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const auto& h : hosts_) n += sim_.crashed(h->id()) ? 0 : 1;
    return n;
  }
  std::size_t majority() const { return hosts_.size() / 2 + 1; }
  std::size_t pick_alive() {
    while (true) {
      std::size_t i = rng_.below(hosts_.size());
      if (!sim_.crashed(hosts_[i]->id())) return i;
    }
  }

  sim::Simulator sim_;
  sim::Network net_;
  Rng rng_;
  std::vector<std::unique_ptr<harness::PaxosHost>> hosts_;
};

class PaxosChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosChaos, FiveReplicasUnitDelays) {
  ChaosHarness h(GetParam(), 5, false);
  h.run_chaos(60, 2);
  h.verify(60);
}

TEST_P(PaxosChaos, FiveReplicasExponentialDelays) {
  ChaosHarness h(GetParam() * 7 + 1, 5, true);
  h.run_chaos(60, 2);
  h.verify(60);
}

TEST_P(PaxosChaos, SevenReplicasThreeCrashes) {
  ChaosHarness h(GetParam() * 13 + 5, 7, true);
  h.run_chaos(80, 3);
  h.verify(80);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosChaos, ::testing::Values(1, 2, 3, 4, 5),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ratc::paxos
