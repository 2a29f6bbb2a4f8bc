// Sharing semantics of the commit vocabulary on both replica stacks: a
// transaction's payload projection and meta are built once and carried by
// reference from PREPARE to PREPARE_ACK to ACCEPT (or its one-sided write),
// while each replica's log holds a copy of its own.
#include <gtest/gtest.h>

#include <vector>

#include "commit/cluster.h"
#include "rdma/cluster.h"
#include "rdma/fabric.h"
#include "sim/network.h"

namespace ratc {
namespace {

using commit::Accept;
using commit::Prepare;
using commit::PrepareAck;
using tcs::Decision;
using tcs::Payload;

Payload on_objects(std::vector<ObjectId> objects) {
  Payload p;
  for (ObjectId o : objects) {
    p.reads.push_back({o, 0});
    p.writes.push_back({o, 1});
  }
  p.commit_version = 1;
  return p;
}

/// Keeps every message sent and every one-sided write, so the objects they
/// hold stay alive after delivery.
struct Capture : sim::NetworkObserver, rdma::FabricObserver {
  void on_send(Time, ProcessId, ProcessId, const sim::AnyMessage& m) override {
    seen.push_back(m);
  }
  void on_write(Time, ProcessId, ProcessId, const sim::AnyMessage& m) override {
    seen.push_back(m);
  }

  template <typename T>
  std::vector<const T*> all() const {
    std::vector<const T*> out;
    for (const sim::AnyMessage& m : seen) {
      if (const T* t = m.as<T>()) out.push_back(t);
    }
    return out;
  }

  std::vector<sim::AnyMessage> seen;
};

/// Checks that every PREPARE_ACK and every replication record `A` forwards
/// the objects of the PREPARE of its shard, and returns the PREPAREs.
template <typename A>
std::vector<const Prepare*> expect_forwarded(const Capture& cap, const tcs::ShardMap& map,
                                             std::size_t followers_per_shard) {
  std::vector<const Prepare*> prepares = cap.all<Prepare>();
  auto prepare_of = [&](ShardId s) -> const Prepare* {
    for (const Prepare* p : prepares) {
      if (map.shards_of(*p->payload) == std::vector<ShardId>{s}) return p;
    }
    return nullptr;
  };
  std::vector<const PrepareAck*> acks = cap.all<PrepareAck>();
  EXPECT_EQ(acks.size(), prepares.size());
  for (const PrepareAck* ack : acks) {
    const Prepare* p = prepare_of(ack->shard);
    if (p == nullptr) {
      ADD_FAILURE() << "no PREPARE for shard " << ack->shard;
      continue;
    }
    EXPECT_EQ(ack->payload.get(), p->payload.get());
    EXPECT_EQ(ack->meta.get(), p->meta.get());
  }
  std::vector<const A*> accepts = cap.all<A>();
  EXPECT_EQ(accepts.size(), prepares.size() * followers_per_shard);
  for (const A* a : accepts) {
    const Prepare* p = prepare_of(a->shard);
    if (p == nullptr) {
      ADD_FAILURE() << "no PREPARE for shard " << a->shard;
      continue;
    }
    EXPECT_EQ(a->payload.get(), p->payload.get());
    EXPECT_EQ(a->meta.get(), p->meta.get());
  }
  return prepares;
}

TEST(MessageSharing, CommitAckAndAcceptForwardThePreparesObjects) {
  commit::Cluster cluster({.seed = 1, .num_shards = 2, .shard_size = 3});
  Capture cap;
  cluster.net().add_observer(&cap);
  commit::Client& client = cluster.add_client();
  // Objects 0 and 2 live on shard 0, object 1 on shard 1.
  TxnId single = cluster.next_txn_id(), split = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), single, on_objects({0, 2}));
  cluster.sim().run();
  ASSERT_EQ(client.decision(single), Decision::kCommit);
  std::vector<const Prepare*> prepares =
      expect_forwarded<Accept>(cap, cluster.shard_map(), 2);
  ASSERT_EQ(prepares.size(), 1u);
  // A payload on one shard is its own projection: the client's object.
  EXPECT_EQ(prepares[0]->payload.get(), cluster.history().payload_of(single));

  cap.seen.clear();
  client.certify_colocated(cluster.replica(1, 1), split, on_objects({3, 4}));
  cluster.sim().run();
  ASSERT_EQ(client.decision(split), Decision::kCommit);
  prepares = expect_forwarded<Accept>(cap, cluster.shard_map(), 2);
  ASSERT_EQ(prepares.size(), 2u);
  // Split across shards: one projection per shard, and one meta for both.
  EXPECT_NE(prepares[0]->payload.get(), prepares[1]->payload.get());
  EXPECT_EQ(prepares[0]->meta.get(), prepares[1]->meta.get());
}

TEST(MessageSharing, RdmaAckAndRAcceptForwardThePreparesObjects) {
  rdma::Cluster cluster({.seed = 1, .num_shards = 2, .shard_size = 3});
  Capture cap;
  cluster.net().add_observer(&cap);
  cluster.fabric().add_observer(&cap);
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, on_objects({1, 2}));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  EXPECT_EQ(expect_forwarded<rdma::RAccept>(cap, cluster.shard_map(), 2).size(), 2u);
}

TEST(MessageSharing, EachReplicaLogHoldsItsOwnCopy) {
  commit::Cluster cluster({.seed = 1, .num_shards = 1, .shard_size = 2});
  Capture cap;
  cluster.net().add_observer(&cap);
  commit::Client& client = cluster.add_client();
  TxnId t = cluster.next_txn_id();
  client.certify_colocated(cluster.replica(0, 1), t, on_objects({0, 1}));
  cluster.sim().run();
  ASSERT_EQ(client.decision(t), Decision::kCommit);
  const Prepare* p = cap.all<Prepare>().at(0);
  const commit::ReplicaLog& leader = cluster.replica(0, 0).log();
  const commit::ReplicaLog& follower = cluster.replica(0, 1).log();
  const commit::LogEntry& at_leader = *leader.find(leader.slot_of(t));
  const commit::LogEntry& at_follower = *follower.find(follower.slot_of(t));
  EXPECT_EQ(at_leader.payload, *p->payload);
  EXPECT_EQ(at_follower.payload, *p->payload);
  EXPECT_EQ(at_leader.meta, *p->meta);
  EXPECT_EQ(at_follower.meta, *p->meta);
  const void* storage[] = {p->payload->reads.data(), at_leader.payload.reads.data(),
                           at_follower.payload.reads.data()};
  EXPECT_NE(storage[0], storage[1]);
  EXPECT_NE(storage[0], storage[2]);
  EXPECT_NE(storage[1], storage[2]);
  EXPECT_NE(at_leader.meta.participants.data(), at_follower.meta.participants.data());
  EXPECT_NE(at_leader.meta.participants.data(), p->meta->participants.data());
}

}  // namespace
}  // namespace ratc
