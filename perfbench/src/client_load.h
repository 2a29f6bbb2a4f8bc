// The benchmark's client load for rt::ThreadedRuntime.
//
// A fixed set of commit::Client processes submit to chosen coordinators.
// All of a client's state is touched only on its own worker: a phase starts
// with a 0-delay timer on the client, closed-loop refills run inside the
// client's decision callback, and open-loop submissions come from a pacer
// timer on the client.  The main thread only starts phases, polls shared
// counters and reads results under each client's lock.
//
// Properties the benchmark relies on:
//  * one TxnId space per cluster, across all phases;
//  * payloads read versions from one committed-version view shared by all
//    clients (payload_gen.h);
//  * every phase has a deadline: transactions still undecided then are
//    counted as failed instead of hanging the run;
//  * open-loop latency is measured from each transaction's due time, so a
//    late generator shows in the latency, and its lag is reported too.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "commit/client.h"
#include "payload_gen.h"
#include "rt/runtime.h"
#include "tcs/history.h"

namespace perfbench {

struct PhaseSpec {
  /// Transactions over all clients; 0 for a time-bound phase.
  std::size_t txns = 0;
  /// Transactions per CERTIFY round (1 = scalar certification).
  std::size_t batch = 1;
  /// Closed loop: transactions each client keeps in flight.
  std::size_t window = 16;
  /// Open loop when nonzero: the rate over all clients, in txn/s.
  double rate = 0;
  /// Time-bound phases stop submitting after this long.
  double duration_s = 0;
  /// Transactions undecided this long after the phase started are failed.
  double deadline_s = 30;
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t decided = 0;
  std::uint64_t committed = 0;
  /// Committed within the submission window (time-bound phases) or over
  /// the whole phase (fixed-size phases), and that window's length.
  std::uint64_t committed_in_window = 0;
  double window_s = 0;
  /// First submission to the last decision (or the deadline).
  double wall_s = 0;
  /// Certify-to-decide latency per decided transaction, from the due time
  /// in an open loop and from the send in a closed loop.
  std::vector<double> lat_us;
  /// Open loop: how late each submission was against its due time.
  std::vector<double> lag_us;
  std::uint64_t failed() const { return attempted - decided; }
};

/// Due time of a client's k-th open-loop transaction: clients interleave so
/// that together they submit at `rate`.
inline std::int64_t due_ns(std::int64_t start_ns, double rate, std::size_t clients,
                           std::size_t client, std::size_t k) {
  double period_ns = 1e9 / rate;
  return start_ns + static_cast<std::int64_t>(
                        (static_cast<double>(k) * static_cast<double>(clients) +
                         static_cast<double>(client)) *
                        period_ns);
}

/// Latency accounting of one open-loop transaction: the generator lag
/// (submission after due) and the latency from due to decision.
struct DueAccount {
  double lag_us = 0;
  double lat_us = 0;
};
inline DueAccount account_from_due(std::int64_t due, std::int64_t submitted,
                                   std::int64_t decided) {
  return DueAccount{static_cast<double>(submitted - due) / 1000.0,
                    static_cast<double>(decided - due) / 1000.0};
}

class ClientLoad {
 public:
  /// Spawns `clients` client processes (pids first_pid, first_pid+1, ...);
  /// call before the runtime starts.  Client i submits to
  /// coordinators[i % size].
  ClientLoad(ratc::rt::Runtime& rt, std::vector<ratc::ProcessId> coordinators,
             std::size_t clients, ratc::ProcessId first_pid, std::uint64_t seed,
             VersionView& view, const ratc::Zipfian* zipf);
  ~ClientLoad();

  ClientLoad(const ClientLoad&) = delete;
  ClientLoad& operator=(const ClientLoad&) = delete;

  /// Runs one phase on the started runtime and blocks until every
  /// submitted transaction is decided or the deadline passes.
  PhaseResult run(const PhaseSpec& spec);

  /// All clients' histories merged in event-time order; call only after
  /// the runtime stopped.
  ratc::tcs::History merged_history() const;

  /// Payloads drawn from the same key distribution (for layer replays).
  std::vector<ratc::tcs::Payload> sample_payloads(std::size_t n, std::uint64_t seed) const;

 private:
  struct Client {
    std::unique_ptr<ratc::tcs::History> history;
    std::unique_ptr<ratc::commit::Client> proc;
    std::unique_ptr<PayloadGen> gen;
    ratc::ProcessId coordinator = ratc::kNoProcess;
    std::size_t index = 0;
    // Worker-only phase state, including the phase's own copy of its spec.
    PhaseSpec spec;
    std::uint64_t phase = 0;
    std::size_t quota = 0;
    std::size_t submitted = 0;
    std::size_t inflight = 0;
    std::int64_t start_ns = 0;
    /// Undecided transaction -> its due time (open loop) or send time.
    std::unordered_map<ratc::TxnId, std::int64_t> pending;
    // Results, guarded by mu (written on the worker, read by the main thread).
    std::mutex mu;
    std::vector<double> lat_us;
    std::vector<double> lag_us;
    std::int64_t first_submit_ns = 0;
    std::int64_t last_decision_ns = 0;
  };

  void begin(Client& c, const PhaseSpec& spec, std::uint64_t phase, std::int64_t start_ns);
  void pump(Client& c);
  void pace(Client& c);
  void submit(Client& c, std::size_t n, std::int64_t t0_ns);
  void on_decision(Client& c, ratc::TxnId txn, ratc::tcs::Decision d);

  ratc::rt::Runtime& rt_;
  VersionView& view_;
  const ratc::Zipfian* zipf_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<bool> stop_{false};
  std::atomic<ratc::TxnId> next_txn_{1};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> decided_{0};
  std::atomic<std::uint64_t> committed_{0};
};

}  // namespace perfbench
