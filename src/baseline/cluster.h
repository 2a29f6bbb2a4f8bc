// Simulator harness for the baseline 2PC-over-Paxos TCS: shards of 2f+1
// servers, each one process that hosts its member of the shard's Paxos
// group, and a routing table of shard leaders, on the SimHost that the
// replica stacks' clusters also stand on (recon/cluster_support.h): its
// Simulator, Network, tracer, history and commit::Client processes, in
// recon::PidLayout's pid layout.  A baseline client is a commit::Client in
// remote mode.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "baseline/shard_server.h"
#include "recon/cluster_support.h"
#include "tcs/certifier.h"
#include "tcs/shard_map.h"

namespace ratc::baseline {

class BaselineCluster : public recon::SimHost, public recon::PidLayout {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::uint32_t num_shards = 2;
    std::size_t shard_size = 3;  ///< 2f+1 replicas per shard
    std::string isolation = "serializability";
    /// Exponentially distributed link delays (mean 5) instead of unit delays.
    bool exponential_delays = false;
    bool enable_tracer = false;
    /// What follows a coordinator crash (baseline/termination.h):
    /// kClassical is the paper's strawman, kCooperative the classic 2PC fix
    /// (participants query their peers), kPaxosCommit Gray & Lamport's
    /// non-blocking Paxos Commit.
    TerminationMode termination = TerminationMode::kClassical;
    /// Every server cross-checks its indexed votes against the flat fold
    /// (ShardServer::Options::check_certifier_index).
    bool check_certifier_index = false;
  };

  explicit BaselineCluster(Options options);

  ShardServer& server(ShardId s, std::size_t idx);
  ShardServer& server_by_pid(ProcessId pid);
  ProcessId leader_server(ShardId s) const;
  /// The server a client should submit to: the leader of the transaction's
  /// first participant shard.
  ProcessId coordinator_for(const tcs::Payload& payload) const;

  // --- topology (the baseline's membership is static: no spares) --------------

  std::uint32_t num_shards() const { return options_.num_shards; }
  /// All server pids of shard s (including crashed ones): PidLayout's
  /// member pids, and the shard's Paxos group.
  std::vector<ProcessId> shard_servers(ShardId s) const;

  // --- failure & leadership-change hooks ---------------------------------------

  /// Crashes one server, Paxos member included.  Does NOT repoint leadership:
  /// callers crashing the leader must follow up with elect_leader (the
  /// coordinator state it held is lost regardless — classical 2PC's
  /// blocking weakness).
  void crash_server(ProcessId server);

  /// Leadership change without a crash (the baseline's only analogue of
  /// reconfiguration): `new_leader` starts a Paxos election and the routing
  /// tables are repointed.
  void elect_leader(ShardId s, ProcessId new_leader);

  /// Crashes the leader server of shard s, then has server new_leader_idx
  /// take over leadership and updates the routing tables.
  void fail_over(ShardId s, std::size_t new_leader_idx);

  const tcs::ShardMap& shard_map() const { return shard_map_; }
  const tcs::Certifier& certifier() const { return *certifier_; }

  /// Aggregate termination counters over every shard server (all zero
  /// under kClassical).
  TerminationStats termination_stats() const;

  /// Read-only snapshot transaction through SimHost::serve_snapshot_read,
  /// leader-gated: the baseline lacks the all-follower-ack rule, so only a
  /// caught-up Paxos leader of each involved shard may serve
  /// (ShardServer::can_serve_reads).  Returns nullopt when some shard's
  /// designated leader is crashed, electing, or lagging, when the version
  /// history was truncated, or when a nonzero staleness bound is violated.
  /// `member_hint` is accepted for signature parity with the reconfigurable
  /// stacks and ignored — followers never serve here.
  std::optional<tcs::Csn> snapshot_read(const std::vector<ObjectId>& objects,
                                        Duration staleness_bound = 0,
                                        std::uint64_t member_hint = 0);

  /// End-of-run verdict: no conflicting client decisions, and every server
  /// (of any shard, crashed or not) that decided a transaction agrees on
  /// its decision — the state-machine-replication and 2PC-atomicity
  /// obligations of the baseline.  Returns a diagnostic on failure.
  std::string verify() const;

 private:
  ProcessId server_pid(ShardId s, std::size_t idx) const;

  Options options_;
  tcs::ShardMap shard_map_;
  std::unique_ptr<tcs::Certifier> certifier_;
  /// Shard-major: shard s's server idx at s * shard_size + idx.
  std::vector<std::unique_ptr<ShardServer>> servers_;
  /// The routing table's leader per shard.
  std::vector<ProcessId> leader_;
};

}  // namespace ratc::baseline
