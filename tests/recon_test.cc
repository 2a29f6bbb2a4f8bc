// The shared reconfigurer core (src/recon/): placement-policy semantics,
// the engine's attempt lifecycle against scripted hooks (probe/descend,
// CAS win/loss, the allocated-spares ledger, pending-target tracking), and
// the cluster-level wiring of the policy seam into replica-driven
// reconfigurations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "commit/cluster.h"
#include "recon/engine.h"
#include "recon/placement.h"
#include "sim/simulator.h"

namespace ratc::recon {
namespace {

// --- placement policies -------------------------------------------------------

PlacementInput input_with(ProcessId leader, std::vector<ProcessId> responders,
                          std::set<ProcessId> suspected, std::size_t target) {
  PlacementInput in;
  in.shard = 0;
  in.next_epoch = 2;
  in.leader_candidate = leader;
  in.responders = std::move(responders);
  in.target_size = target;
  in.context.suspected = std::move(suspected);
  return in;
}

/// allocate_fresh backed by a finite pool, recording consumption.
struct Pool {
  std::vector<ProcessId> spares;
  std::vector<ProcessId> handed_out;

  std::function<std::vector<ProcessId>(std::size_t)> allocator() {
    return [this](std::size_t n) {
      std::vector<ProcessId> out;
      while (!spares.empty() && out.size() < n) {
        out.push_back(spares.front());
        spares.erase(spares.begin());
      }
      handed_out.insert(handed_out.end(), out.begin(), out.end());
      return out;
    };
  }
};

TEST(ReplaceSuspectsPolicy, HappyPathRetainsRespondersInPidOrder) {
  ReplaceSuspectsPolicy policy;
  Pool pool{.spares = {50}};
  auto cfg = policy.plan(input_with(10, {10, 11, 12}, {}, 3), pool.allocator());
  EXPECT_EQ(cfg.leader, 10u);
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 11, 12}));
  EXPECT_TRUE(pool.handed_out.empty());  // no spare needed
}

TEST(ReplaceSuspectsPolicy, AllMembersSuspectedBackfillsWithFreshSpares) {
  // Every responder besides the leader candidate is suspect: the proposal
  // must keep only the (mandatory) leader and draw the rest fresh.
  ReplaceSuspectsPolicy policy;
  Pool pool{.spares = {50, 51, 52}};
  auto cfg =
      policy.plan(input_with(10, {10, 11, 12}, {10, 11, 12}, 3), pool.allocator());
  EXPECT_EQ(cfg.leader, 10u);
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 50, 51}));
  EXPECT_EQ(pool.handed_out, (std::vector<ProcessId>{50, 51}));
}

TEST(ReplaceSuspectsPolicy, SparePoolExhaustedProposesUndersizedConfig) {
  // The pool cannot cover the deficit: the policy proposes what exists
  // rather than stalling — an undersized epoch beats a frozen shard (the
  // paper's constraints allow any size >= 1 containing the leader).
  ReplaceSuspectsPolicy policy;
  Pool pool{.spares = {50}};  // need 2, have 1
  auto cfg = policy.plan(input_with(10, {10, 11}, {11}, 3), pool.allocator());
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 50}));
  EXPECT_EQ(cfg.members.size(), 2u);  // undersized but valid
  EXPECT_TRUE(pool.spares.empty());
}

TEST(ReplaceSuspectsPolicy, SuspectSupersetOfRespondersKeepsLeaderOnly) {
  // Suspicion can outrun probing (asymmetric partitions): even when every
  // responder — including the leader candidate — is suspect, the candidate
  // is the only process known to hold the shard state, so it stays and
  // leads; everyone else is replaced.
  ReplaceSuspectsPolicy policy;
  Pool pool{.spares = {50}};
  auto cfg =
      policy.plan(input_with(10, {10, 11}, {10, 11, 12, 13}, 2), pool.allocator());
  EXPECT_EQ(cfg.leader, 10u);
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 50}));
}

TEST(ReplaceSuspectsPolicy, NoAllocatorProposesRespondersOnly) {
  ReplaceSuspectsPolicy policy;
  auto cfg = policy.plan(input_with(10, {10}, {}, 3), nullptr);
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10}));
}

PlacementInput zoned_input(ProcessId leader, std::vector<ProcessId> responders,
                           std::map<ProcessId, std::string> zones,
                           std::size_t target) {
  PlacementInput in = input_with(leader, std::move(responders), {}, target);
  in.context.zones = std::move(zones);
  return in;
}

TEST(ZoneAntiAffinityPolicy, PrefersUnrepresentedZonesOverPidOrder) {
  // Leader in z0; responders 11 (z0) and 12 (z1); one seat left.  Pid order
  // would take 11; zone anti-affinity takes 12.
  ZoneAntiAffinityPolicy policy;
  auto cfg = policy.plan(
      zoned_input(10, {10, 11, 12}, {{10, "z0"}, {11, "z0"}, {12, "z1"}}, 2),
      nullptr);
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 12}));
}

TEST(ZoneAntiAffinityPolicy, FillsFromSameZoneWhenNoAlternative) {
  // All responders share the leader's zone: degrade to pid order rather
  // than burning fresh spares (responders are known-recently-alive).
  ZoneAntiAffinityPolicy policy;
  Pool pool{.spares = {50}};
  auto cfg = policy.plan(
      zoned_input(10, {10, 11, 12}, {{10, "z0"}, {11, "z0"}, {12, "z0"}}, 2),
      pool.allocator());
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 11}));
  EXPECT_TRUE(pool.handed_out.empty());
}

TEST(ZoneAntiAffinityPolicy, UnlabeledRespondersDegradeToReplaceSuspects) {
  ZoneAntiAffinityPolicy zone;
  ReplaceSuspectsPolicy base;
  PlacementInput in = input_with(10, {10, 11, 12, 13}, {12}, 3);
  auto a = zone.plan(in, nullptr);
  auto b = base.plan(in, nullptr);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.leader, b.leader);
}

TEST(ZoneAntiAffinityPolicy, SkipsSuspectsInBothPasses) {
  ZoneAntiAffinityPolicy policy;
  PlacementInput in = zoned_input(
      10, {10, 11, 12}, {{10, "z0"}, {11, "z1"}, {12, "z1"}}, 3);
  in.context.suspected = {11};
  Pool pool{.spares = {50}};
  auto cfg = policy.plan(in, pool.allocator());
  // 11 (z1, suspect) is skipped in the spread pass AND the fill pass; 12
  // (z1, healthy) takes the diverse seat, the spare fills the last one.
  EXPECT_EQ(cfg.members, (std::vector<ProcessId>{10, 12, 50}));
}

// --- the engine against scripted hooks ----------------------------------------

/// Scripted substrate: configs served from a map, probes recorded, CAS
/// outcomes queued by the test.
class ScriptedHooks : public StackHooks {
 public:
  // shard -> epoch -> members.  latest[s] names the top stored epoch.
  std::map<ShardId, std::map<Epoch, std::vector<ProcessId>>> stored;
  Pool pool;
  std::vector<std::pair<ProcessId, Epoch>> probes;
  std::vector<Proposal> submitted;
  std::vector<Proposal> activated;
  std::map<ShardId, std::vector<ProcessId>> released;
  /// Pending CAS continuations, resolved explicitly by the test.
  std::vector<std::function<void(bool)>> cas_waiting;
  PlacementContext context;

  void fetch_latest(const std::vector<ShardId>& shards,
                    std::function<void(bool, Snapshot)> cb) override {
    Snapshot snap;
    for (ShardId s : shards) {
      auto it = stored.find(s);
      if (it == stored.end() || it->second.empty()) {
        cb(false, {});
        return;
      }
      snap.epoch = it->second.rbegin()->first;
      snap.members[s] = it->second.rbegin()->second;
    }
    cb(snap.valid(), snap);
  }

  void fetch_members_at(ShardId shard, Epoch epoch,
                        std::function<void(bool, std::vector<ProcessId>)> cb) override {
    auto it = stored.find(shard);
    if (it == stored.end() || it->second.count(epoch) == 0) {
      cb(false, {});
      return;
    }
    cb(true, it->second.at(epoch));
  }

  void send_probe(ProcessId target, Epoch new_epoch) override {
    probes.emplace_back(target, new_epoch);
  }

  std::vector<ProcessId> reserve_spares(ShardId, std::size_t n) override {
    return pool.allocator()(n);
  }

  void release_spares(ShardId shard, const std::vector<ProcessId>& spares) override {
    auto& r = released[shard];
    r.insert(r.end(), spares.begin(), spares.end());
  }

  void submit(const Proposal& proposal, std::function<void(bool)> done) override {
    submitted.push_back(proposal);
    cas_waiting.push_back(std::move(done));
  }

  void activate(const Proposal& proposal) override { activated.push_back(proposal); }

  PlacementContext placement_context(ShardId) override { return context; }

  void resolve_cas(bool won) {
    ASSERT_FALSE(cas_waiting.empty());
    auto done = cas_waiting.front();
    cas_waiting.erase(cas_waiting.begin());
    done(won);
  }
};

constexpr ProcessId kOwner = 7;

TEST(ReconEngine, HappyPathProposesClampedConfigAndActivates) {
  sim::Simulator sim(1);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  Engine engine(sim.runtime(), kOwner, hooks, {.target_shard_size = 2});

  ASSERT_TRUE(engine.start({0}));
  EXPECT_FALSE(engine.start({0}));  // one attempt at a time
  ASSERT_EQ(hooks.probes.size(), 2u);
  EXPECT_EQ(hooks.probes[0], (std::pair<ProcessId, Epoch>{10, 2}));
  EXPECT_EQ(engine.pending_target(), 2u);
  EXPECT_EQ(engine.attempt_epoch(), 2u);

  engine.on_probe_ack(11, 0, 2, /*initialized=*/true);
  EXPECT_FALSE(engine.in_flight());  // proposed: attempt over, CAS pending
  ASSERT_EQ(hooks.submitted.size(), 1u);
  const configsvc::ShardConfig& cfg = hooks.submitted[0].shards.at(0);
  EXPECT_EQ(cfg.epoch, 2u);
  EXPECT_EQ(cfg.leader, 11u);   // the initialized responder leads (clamped)
  EXPECT_TRUE(cfg.has_member(11));

  hooks.resolve_cas(true);
  ASSERT_EQ(hooks.activated.size(), 1u);
  EXPECT_EQ(engine.stats().cas_wins, 1u);
  EXPECT_TRUE(engine.ledger_balanced());
}

TEST(ReconEngine, DescendsThroughNeverActivatedEpoch) {
  sim::Simulator sim(2);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  hooks.stored[0][2] = {20};  // stored but never activated; 20 uninitialized
  Engine engine(sim.runtime(), kOwner, hooks, {.target_shard_size = 2, .probe_patience = 5});

  ASSERT_TRUE(engine.start({0}));
  ASSERT_EQ(hooks.probes.size(), 1u);  // probes epoch 2's membership first
  EXPECT_EQ(hooks.probes[0].first, 20u);
  EXPECT_EQ(hooks.probes[0].second, 3u);

  engine.on_probe_ack(20, 0, 3, /*initialized=*/false);
  sim.run_until(sim.now() + 10);  // probe_patience elapses -> descend
  ASSERT_EQ(hooks.probes.size(), 3u);  // epoch 1's two members, same target
  EXPECT_EQ(engine.stats().descents, 1u);

  engine.on_probe_ack(10, 0, 3, true);
  ASSERT_EQ(hooks.submitted.size(), 1u);
  EXPECT_EQ(hooks.submitted[0].epoch, 3u);
  EXPECT_EQ(hooks.submitted[0].shards.at(0).leader, 10u);
  // Responders accumulate across the descent: the uninitialized epoch-2
  // member is a valid follower (never-activated epochs accepted nothing).
  EXPECT_TRUE(hooks.submitted[0].shards.at(0).has_member(20));
}

TEST(ReconEngine, GivesUpBelowTheFirstEpoch) {
  sim::Simulator sim(3);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10};
  Engine engine(sim.runtime(), kOwner, hooks, {.probe_patience = 5});

  ASSERT_TRUE(engine.start({0}));
  engine.on_probe_ack(10, 0, 2, /*initialized=*/false);
  sim.run_until(sim.now() + 10);
  EXPECT_FALSE(engine.in_flight());
  EXPECT_EQ(engine.stats().abandoned, 1u);
  // The target survives the give-up: probes froze epoch 1's members, and
  // only an observed stored epoch may clear the obligation.
  EXPECT_EQ(engine.pending_target(), 2u);
}

TEST(ReconEngine, SwallowedProbesKeepTheAttemptInFlight) {
  // No acks at all (whole shard crashed): the engine stays probing forever
  // — the paper's "stuck reconfigurer" under an Assumption 1 violation —
  // unless an embedder watchdog abandons it.
  sim::Simulator sim(4);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  Engine engine(sim.runtime(), kOwner, hooks, {.probe_patience = 5});
  ASSERT_TRUE(engine.start({0}));
  sim.run_until(2000);
  EXPECT_TRUE(engine.in_flight());
  engine.abandon();
  EXPECT_FALSE(engine.in_flight());
  EXPECT_EQ(engine.pending_target(), 2u);
  engine.observe_epoch(0, 2);
  EXPECT_EQ(engine.pending_target(), kNoEpoch);
}

TEST(ReconEngine, CasLossReleasesEveryReservedSpare) {
  sim::Simulator sim(5);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  hooks.pool.spares = {50, 51};
  Engine engine(sim.runtime(), kOwner, hooks, {.target_shard_size = 3});

  ASSERT_TRUE(engine.start({0}));
  engine.on_probe_ack(10, 0, 2, true);  // sole responder: 2 spares reserved
  EXPECT_EQ(engine.stats().spares_reserved, 2u);
  EXPECT_EQ(engine.spares_pending(), 2u);
  EXPECT_TRUE(engine.ledger_balanced());

  hooks.resolve_cas(false);
  EXPECT_EQ(engine.stats().cas_losses, 1u);
  EXPECT_EQ(engine.stats().spares_released, 2u);
  EXPECT_EQ(engine.spares_pending(), 0u);
  EXPECT_EQ(hooks.released[0], (std::vector<ProcessId>{50, 51}));
  EXPECT_TRUE(engine.ledger_balanced());
  EXPECT_TRUE(hooks.activated.empty());
}

TEST(ReconEngine, CasWinInstallsUsedAndReleasesUnusedSpares) {
  // A trimming policy reserves more than it installs: the surplus must go
  // back to the pool even on a WIN, and the ledger must account for both.
  class OverAllocatingPolicy final : public PlacementPolicy {
   public:
    const char* name() const override { return "over-allocating"; }
    configsvc::ShardConfig plan(
        const PlacementInput& in,
        const std::function<std::vector<ProcessId>(std::size_t)>& allocate_fresh)
        override {
      configsvc::ShardConfig next;
      next.epoch = in.next_epoch;
      next.leader = in.leader_candidate;
      next.members = {in.leader_candidate};
      std::vector<ProcessId> spares = allocate_fresh(2);  // takes 2, uses 1
      if (!spares.empty()) next.members.push_back(spares.front());
      return next;
    }
  };
  OverAllocatingPolicy policy;
  sim::Simulator sim(6);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10};
  hooks.pool.spares = {50, 51};
  Engine engine(sim.runtime(), kOwner, hooks, {.target_shard_size = 2, .policy = &policy});

  ASSERT_TRUE(engine.start({0}));
  engine.on_probe_ack(10, 0, 2, true);
  hooks.resolve_cas(true);
  EXPECT_EQ(engine.stats().spares_reserved, 2u);
  EXPECT_EQ(engine.stats().spares_installed, 1u);
  EXPECT_EQ(engine.stats().spares_released, 1u);
  EXPECT_EQ(hooks.released[0], (std::vector<ProcessId>{51}));
  EXPECT_TRUE(engine.ledger_balanced());
}

TEST(ReconEngine, ObservedNewerEpochSupersedesInFlightAttempt) {
  sim::Simulator sim(7);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  Engine engine(sim.runtime(), kOwner, hooks, {});

  ASSERT_TRUE(engine.start({0}));
  engine.observe_epoch(0, 2);  // someone else installed our target epoch
  EXPECT_FALSE(engine.in_flight());
  EXPECT_EQ(engine.pending_target(), kNoEpoch);
  // A late ack must not resurrect the attempt.
  engine.on_probe_ack(10, 0, 2, true);
  EXPECT_TRUE(hooks.submitted.empty());
}

TEST(ReconEngine, GlobalAttemptWaitsForEveryShardsCandidate) {
  // The Fig. 8 shape: one attempt across two shards; the proposal may only
  // go out once an initialized responder answered in BOTH.
  sim::Simulator sim(8);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10, 11};
  hooks.stored[1][1] = {20, 21};
  Engine engine(sim.runtime(), kOwner, hooks, {.target_shard_size = 2});

  ASSERT_TRUE(engine.start({0, 1}));
  ASSERT_EQ(hooks.probes.size(), 4u);
  engine.on_probe_ack(10, 0, 2, true);
  EXPECT_TRUE(hooks.submitted.empty());  // shard 1 still pending
  engine.on_probe_ack(21, 1, 2, true);
  ASSERT_EQ(hooks.submitted.size(), 1u);
  EXPECT_EQ(hooks.submitted[0].shards.size(), 2u);
  EXPECT_EQ(hooks.submitted[0].shards.at(0).leader, 10u);
  EXPECT_EQ(hooks.submitted[0].shards.at(1).leader, 21u);
}

TEST(ReconEngine, PlacementContextReachesThePolicy) {
  class ContextProbePolicy final : public PlacementPolicy {
   public:
    const char* name() const override { return "context-probe"; }
    configsvc::ShardConfig plan(
        const PlacementInput& in,
        const std::function<std::vector<ProcessId>(std::size_t)>&) override {
      seen = in.context;
      configsvc::ShardConfig next;
      next.epoch = in.next_epoch;
      next.leader = in.leader_candidate;
      next.members = {in.leader_candidate};
      return next;
    }
    PlacementContext seen;
  };
  ContextProbePolicy policy;
  sim::Simulator sim(9);
  ScriptedHooks hooks;
  hooks.stored[0][1] = {10};
  hooks.context.spare_pool = 3;
  hooks.context.zones[10] = "z1";
  hooks.context.load[10] = 42;
  Engine engine(sim.runtime(), kOwner, hooks, {.policy = &policy});
  ASSERT_TRUE(engine.start({0}));
  engine.on_probe_ack(10, 0, 2, true);
  EXPECT_EQ(policy.seen.spare_pool, 3u);
  EXPECT_EQ(policy.seen.zones.at(10), "z1");
  EXPECT_EQ(policy.seen.load.at(10), 42u);
}

// --- cluster wiring: replica-driven reconfigurations use the policy seam -------

TEST(ReconClusterWiring, ReplicaReconfigurerConsultsClusterPolicy) {
  // The policy seam used to exist only in the controller; the commit
  // replica's reconfigurer role must consult it too now that both run on
  // the shared engine.
  class SingletonPolicy final : public PlacementPolicy {
   public:
    const char* name() const override { return "singleton"; }
    configsvc::ShardConfig plan(
        const PlacementInput& in,
        const std::function<std::vector<ProcessId>(std::size_t)>&) override {
      ++invocations;
      configsvc::ShardConfig next;
      next.epoch = in.next_epoch;
      next.leader = in.leader_candidate;
      next.members = {in.leader_candidate};
      return next;
    }
    int invocations = 0;
  };
  SingletonPolicy policy;
  commit::Cluster::Options opts{
      .seed = 31, .num_shards = 1, .shard_size = 2, .spares_per_shard = 2};
  opts.placement_policy = &policy;
  commit::Cluster cluster(opts);
  ProcessId victim = cluster.replica(0, 1).id();
  ProcessId survivor = cluster.replica(0, 0).id();
  cluster.crash(victim);
  cluster.reconfigure(0, survivor);
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  EXPECT_GE(policy.invocations, 1);
  configsvc::ShardConfig cfg = cluster.current_config(0);
  EXPECT_EQ(cfg.members, std::vector<ProcessId>{survivor});
  EXPECT_EQ(cluster.verify(), "");
  EXPECT_EQ(cluster.spare_ledger_verdict(), "");
}

TEST(ReconClusterWiring, ZoneLabelsAndLoadFlowIntoTheContext) {
  recon::ZoneAntiAffinityPolicy zone_policy;
  commit::Cluster::Options opts{
      .seed = 32, .num_shards = 1, .shard_size = 2, .spares_per_shard = 2};
  opts.placement_policy = &zone_policy;
  opts.num_zones = 2;
  commit::Cluster cluster(opts);
  PlacementContext ctx = cluster.placement_context(0);
  EXPECT_EQ(ctx.spare_pool, 2u);
  EXPECT_EQ(ctx.zones.at(cluster.replica(0, 0).id()), "z0");
  EXPECT_EQ(ctx.zones.at(cluster.replica(0, 1).id()), "z1");
  EXPECT_EQ(ctx.zones.size(), 4u);  // members + spares all labeled
  EXPECT_EQ(ctx.load.size(), 4u);

  // End to end: a crash heals under the zone policy with the ledger clean.
  cluster.crash(cluster.replica(0, 1).id());
  cluster.reconfigure(0, cluster.replica(0, 0).id());
  ASSERT_TRUE(cluster.await_active_epoch(0, 2));
  EXPECT_EQ(cluster.verify(), "");
  EXPECT_EQ(cluster.spare_ledger_verdict(), "");
  EXPECT_GE(cluster.engine_stats().cas_wins, 1u);
}

}  // namespace
}  // namespace ratc::recon
