// Closed-loop workload driver over the runtime seam, for the threaded
// runtime's tests.
//
// Spawns commit::Client processes at CommitSystem::kClientBase onward
// (round-robin over the given coordinator pids) and drives them entirely
// *from their own workers*: the first submission is a 0-delay timer on the
// client's process, and every subsequent submission happens inside the
// client's decision callback — so each client's state (history, payload
// generator, rng, windows) is only ever touched by one thread and needs no
// locks.  The only cross-thread state is the aggregate decided counter the
// main thread polls.  Each client keeps `window` batches in flight, topping
// up batch-by-batch as decisions land.
//
// Payloads come from store::ContendedPayloadGen — the same contended
// read-write mix the sim workloads use — over a keyspace that can stretch
// into the millions of objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "commit/client.h"
#include "common/random.h"
#include "rt/runtime.h"
#include "store/stack_harness.h"
#include "tcs/history.h"
#include "tcs/shard_map.h"

namespace ratc::rt {

class LoadGen {
 public:
  struct Options {
    std::size_t clients = 8;
    std::size_t txns_per_client = 100;
    /// Transactions submitted per CERTIFY round (1 = scalar submit).
    std::size_t batch_size = 1;
    /// Closed-loop window in *batches* per client.
    std::size_t window = 1;
    /// Object universe of the contended payload mix.
    ObjectId keyspace = 1 << 20;
    std::uint64_t seed = 1;
  };

  /// Spawns the clients: construct before the runtime starts.
  LoadGen(Runtime& rt, std::vector<ProcessId> coordinators, Options options);
  ~LoadGen();

  /// Schedules every client's first submission (a 0-delay timer on the
  /// client's own process).  Call before or after the runtime starts.
  void start();

  // --- progress (safe from any thread) -------------------------------------

  std::size_t target_txns() const { return options_.clients * options_.txns_per_client; }
  std::size_t decided() const { return decided_.load(std::memory_order_acquire); }
  bool done() const { return decided() >= target_txns(); }

  // --- results (only after the runtime stopped) -----------------------------

  /// All clients' histories merged into one, ordered by event time — input
  /// for the history checkers.
  tcs::History merged_history() const;

 private:
  struct ClientState {
    std::unique_ptr<tcs::History> history;
    std::unique_ptr<commit::Client> proc;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<store::ContendedPayloadGen> gen;
    ProcessId coordinator = kNoProcess;
    std::size_t submitted = 0;  ///< txns handed to certify so far
    std::size_t inflight = 0;   ///< undecided txns
  };

  void pump(ClientState& c);
  void submit_batch(ClientState& c);

  Runtime& rt_;
  Options options_;
  std::vector<ProcessId> coordinators_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::atomic<std::uint64_t> next_txn_{1};
  std::atomic<std::size_t> decided_{0};
};

}  // namespace ratc::rt
