#include "harness/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>

#include "harness/nemesis.h"
#include "harness/paxos_host.h"
#include "sim/trace.h"

namespace ratc::harness {

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string RunResult::summary() const {
  std::string out = "seed=" + std::to_string(seed) +
                    " submitted=" + std::to_string(submitted) +
                    " decided=" + std::to_string(decided) +
                    " committed=" + std::to_string(committed) +
                    " dropped=" + std::to_string(dropped) +
                    " held=" + std::to_string(held);
  if (ctrl_attempts > 0) out += " ctrl-attempts=" + std::to_string(ctrl_attempts);
  if (probes_sent > 0) {
    out += " probes=" + std::to_string(probes_sent) +
           " cas-losses=" + std::to_string(cas_losses) +
           " spares=" + std::to_string(spares_reserved) + "/" +
           std::to_string(spares_released);
  }
  if (reads_attempted > 0) {
    out += " reads=" + std::to_string(reads_served) + "/" +
           std::to_string(reads_attempted);
  }
  if (term_resolved > 0 || term_blocked > 0 || term_adopted > 0) {
    out += " term-resolved=" + std::to_string(term_resolved) +
           " term-blocked=" + std::to_string(term_blocked) +
           " term-adopted=" + std::to_string(term_adopted);
  }
  if (linearization_checked) out += " lin-checked";
  if (!problems.empty()) out += "\n" + problems;
  return out;
}

std::string SweepResult::report() const {
  std::string out = std::to_string(failures.size()) + " of " +
                    std::to_string(runs) + " runs failed\n";
  for (const auto& f : failures) out += f.summary() + "\n";
  out += "reproduce: re-run the failing seed with the same workload and "
         "schedule options (see tests/README.md)";
  return out;
}

namespace {

using tcs::Decision;
using tcs::Payload;

// --- the paxos substrate as a stack harness --------------------------------------
//
// Adapts the bare Multi-Paxos group to the StackHarness surface (see
// src/store/stack_harness.h) so the same FaultDriver below covers it:
// "transactions" are commands carrying their TxnId, "decided" is the length
// of the longest surviving applied log, a leadership change stands in for
// reconfiguration, and verify() checks prefix agreement and exactly-once
// application across survivors.

class PaxosHarness {
 public:
  using Workload = PaxosWorkloadOptions;
  static constexpr const char* kName = "paxos";
  static constexpr std::uint64_t kWorkloadSalt = 0xc0ffeeULL;
  static constexpr Duration kPaceHi = 13;
  static constexpr store::CheckerSet kCheckers{false, false, false};

  PaxosHarness(std::uint64_t seed, const Workload& w)
      : w_(w),
        sim_(seed),
        net_(sim_, w.exponential_delays
                       ? sim::Network::exponential_delay_options(4.0)
                       : sim::Network::unit_delay_options()) {
    net_.add_observer(&tracer_);
    hosts_ = spawn_paxos_group(net_.runtime(), w.replicas);
  }

  sim::Simulator& sim() { return sim_; }
  void install_fault_injector(sim::FaultInjector* fi) { net_.set_fault_injector(fi); }
  void set_on_decision(std::function<void(TxnId, Decision)>) {
    // Commands have no per-txn decisions; progress is read off the logs.
  }
  TxnId next_txn_id() { return next_txn_++; }

  bool submit(Rng& rng, TxnId txn, const Payload&) {
    hosts_[pick_alive(rng)]->submit(static_cast<int>(txn));
    return true;
  }

  std::size_t decided_count() const {
    const std::vector<int>* longest = longest_alive_log();
    return longest == nullptr ? 0 : longest->size();
  }
  std::size_t committed_count() const { return decided_count(); }

  std::uint32_t num_shards() const { return 1; }
  std::vector<std::vector<ProcessId>> all_units() const {
    std::vector<std::vector<ProcessId>> units;
    for (const auto& h : hosts_) units.push_back({h->id()});
    return units;
  }
  std::vector<std::vector<ProcessId>> fault_units(ShardId) const { return all_units(); }

  bool crash_and_reconfigure(Rng& rng, ShardId) {
    if (alive_count() <= majority()) return false;
    std::vector<std::size_t> alive = alive_indices();
    std::size_t victim = alive[rng.below(alive.size())];
    sim_.crash(hosts_[victim]->id());
    hosts_[pick_alive(rng)]->paxos().start_election();
    sim_.run_until(sim_.now() + 200);
    return true;
  }

  bool reconfigure_healthy(Rng& rng, ShardId) {
    // Leadership change is the Paxos analogue of reconfiguration.
    hosts_[pick_alive(rng)]->paxos().start_election();
    sim_.run_until(sim_.now() + 100);
    return true;
  }

  void drain(Duration, Rng& rng) {
    // Commands buffered at a dead leader need a new one: election nudges.
    for (int rounds = 0; rounds < 5; ++rounds) {
      sim_.run();
      hosts_[pick_alive(rng)]->paxos().start_election();
      sim_.run();
    }
  }

  std::string verify() {
    const std::vector<int>* longest = longest_alive_log();
    if (longest == nullptr) return "no replica survived";
    std::string problems;
    // Agreement: every alive replica's applied log is a prefix of the
    // longest one (commands are applied in slot order, so under message
    // loss a replica may lag but never diverge).
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (sim_.crashed(hosts_[i]->id())) continue;
      const auto& log = hosts_[i]->applied();
      if (!std::equal(log.begin(), log.end(), longest->begin())) {
        problems += "agreement: replica " + std::to_string(i) +
                    " diverged from the longest applied log\n";
      }
    }
    std::set<int> unique(longest->begin(), longest->end());
    if (unique.size() != longest->size()) {
      problems += "duplicate command application\n";
    }
    return problems;
  }

  std::string check_linearization() { return ""; }  // not applicable

  std::string trace() {
    std::string out = tracer_.render();
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      out += "log" + std::to_string(i) + ":";
      for (int v : hosts_[i]->applied()) out += std::to_string(v) + ",";
      out += ";";
    }
    return out;
  }

 private:
  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const auto& h : hosts_) n += sim_.crashed(h->id()) ? 0 : 1;
    return n;
  }
  std::size_t majority() const { return hosts_.size() / 2 + 1; }
  std::vector<std::size_t> alive_indices() const {
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (!sim_.crashed(hosts_[i]->id())) alive.push_back(i);
    }
    return alive;
  }
  std::size_t pick_alive(Rng& rng) {
    for (int attempts = 0; attempts < 64; ++attempts) {
      std::size_t i = rng.below(hosts_.size());
      if (!sim_.crashed(hosts_[i]->id())) return i;
    }
    std::vector<std::size_t> alive = alive_indices();
    return alive.empty() ? 0 : alive.front();
  }
  const std::vector<int>* longest_alive_log() const {
    const std::vector<int>* longest = nullptr;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (sim_.crashed(hosts_[i]->id())) continue;
      if (longest == nullptr || hosts_[i]->applied().size() > longest->size()) {
        longest = &hosts_[i]->applied();
      }
    }
    return longest;
  }

  Workload w_;
  sim::Simulator sim_;
  sim::Network net_;
  sim::Tracer tracer_;
  std::vector<std::unique_ptr<PaxosHost>> hosts_;
  TxnId next_txn_ = 1;
};

// --- the one driver ----------------------------------------------------------------
//
// Parameterized by a StackHarness (src/store/stack_harness.h; PaxosHarness
// above implements the same surface).  The driver owns only what is common
// to every stack: the workload loop, the schedule interpretation against
// the harness's fault hooks and machine topology, the drain, and the
// end-of-run checks the harness enumerates.

template <typename Harness>
class FaultDriver {
 public:
  using WorkloadT = typename Harness::Workload;

  FaultDriver(std::uint64_t seed, const WorkloadT& w, const Schedule& schedule)
      : w_(w),
        schedule_(schedule),
        harness_(seed, w),
        nemesis_(harness_.sim(), seed),
        workload_rng_(seed ^ Harness::kWorkloadSalt),
        fault_rng_(seed ^ 0xfa011755ULL),
        read_rng_(seed ^ 0x5ead5a17ULL),
        gen_(workload_rng_, w.object_universe) {
    result_.seed = seed;
    harness_.install_fault_injector(&nemesis_);
    harness_.set_on_decision([this](TxnId t, Decision d) {
      if (d != Decision::kCommit) return;
      auto it = payloads_.find(t);
      if (it != payloads_.end()) gen_.observe_commit(it->second);
    });
  }

  RunResult run() {
    std::size_t next_fault = 0;
    for (int i = 0; i < w_.total_txns; ++i) {
      double frac = static_cast<double>(i) / w_.total_txns;
      while (next_fault < schedule_.events.size() &&
             schedule_.events[next_fault].at <= frac) {
        apply_fault(schedule_.events[next_fault++]);
      }
      if (batch_size() == 1) {
        submit_one();  // scalar path: bit-identical to the pre-batching driver
      } else {
        queue_one();
        if (pending_.size() >= batch_size()) flush_batch();
      }
      harness_.sim().run_until(harness_.sim().now() +
                               workload_rng_.range(0, Harness::kPaceHi));
      maybe_issue_reads();
    }
    flush_batch();  // partial tail (no-op when empty or unbatched)
    while (next_fault < schedule_.events.size()) {
      apply_fault(schedule_.events[next_fault++]);
    }
    // Let remaining fault windows expire, then drain with a clean network.
    harness_.sim().run_until(harness_.sim().now() + w_.drain / 2);
    nemesis_.clear();
    harness_.drain(w_.drain, workload_rng_);
    return finish();
  }

 private:
  /// The workload's batch size when its options carry one (StackWorkload);
  /// harnesses without the knob (PaxosHarness) stay scalar.
  std::size_t batch_size() const {
    if constexpr (requires { w_.batch_size; }) {
      return w_.batch_size > 0 ? w_.batch_size : 1;
    } else {
      return 1;
    }
  }

  void submit_one() {
    Payload p = gen_.next();
    TxnId t = harness_.next_txn_id();
    payloads_[t] = p;
    if (!harness_.submit(workload_rng_, t, p)) {
      payloads_.erase(t);  // no live coordinator: never submitted
    }
  }

  void queue_one() {
    Payload p = gen_.next();
    TxnId t = harness_.next_txn_id();
    payloads_[t] = p;
    pending_.emplace_back(t, std::move(p));
  }

  void flush_batch() {
    if (pending_.empty()) return;
    if constexpr (requires { harness_.submit_batch(workload_rng_, pending_); }) {
      if (!harness_.submit_batch(workload_rng_, pending_)) {
        for (const auto& [t, p] : pending_) payloads_.erase(t);
      }
    } else {
      for (const auto& [t, p] : pending_) {
        if (!harness_.submit(workload_rng_, t, p)) payloads_.erase(t);
      }
    }
    pending_.clear();
  }

  /// Read mix: after each update, issue a geometric number of read-only
  /// snapshot transactions with success probability read_fraction (mean
  /// rf/(1-rf) reads per update — 19 at the 95/5 mix, 0 at rf=0), each over
  /// 1-3 distinct objects.  All randomness comes from read_rng_, a stream
  /// the update path never touches, and snapshot reads are synchronous with
  /// zero messages — so the update trace (and the run fingerprint) at any
  /// read_fraction is bit-identical to the same seed at read_fraction 0.
  /// Stacks without the read surface (PaxosHarness) compile this out.
  void maybe_issue_reads() {
    if constexpr (requires {
                    w_.read_fraction;
                    harness_.snapshot_read(read_rng_, std::vector<ObjectId>{});
                  }) {
      if (w_.read_fraction <= 0) return;
      int issued = 0;
      while (issued < 64 && read_rng_.chance(w_.read_fraction)) {  // cap: rf ~ 1
        std::vector<ObjectId> objects;
        std::uint64_t nobjs = 1 + read_rng_.below(3);
        for (std::uint64_t j = 0; j < nobjs; ++j) {
          ObjectId o = static_cast<ObjectId>(read_rng_.below(w_.object_universe));
          if (std::find(objects.begin(), objects.end(), o) == objects.end()) {
            objects.push_back(o);
          }
        }
        harness_.snapshot_read(read_rng_, objects);
        ++issued;
      }
    }
  }

  void apply_fault(const FaultEvent& e) {
    ShardId s = static_cast<ShardId>(fault_rng_.below(harness_.num_shards()));
    switch (e.kind) {
      case FaultKind::kCrash:
        harness_.crash_and_reconfigure(fault_rng_, s);
        break;
      case FaultKind::kReconfigure:
        harness_.reconfigure_healthy(fault_rng_, s);
        break;
      case FaultKind::kPartition: {
        auto units = harness_.fault_units(s);
        if (units.empty()) return;
        nemesis_.isolate(units[fault_rng_.below(units.size())], e.len, e.lossy);
        break;
      }
      case FaultKind::kMajoritySplit: {
        // Split every machine in the cluster into two sides; the larger
        // side retains a majority of each shard only by luck, so both
        // replication and reconfiguration must cope (or stall safely).
        auto units = harness_.all_units();
        if (units.size() < 2) return;
        fault_rng_.shuffle(units);
        std::vector<ProcessId> side;
        for (std::size_t k = 0; k < units.size() / 2; ++k) {
          side.insert(side.end(), units[k].begin(), units[k].end());
        }
        nemesis_.split({side}, e.len, e.lossy);
        break;
      }
      case FaultKind::kOneWayPartition: {
        auto units = harness_.fault_units(s);
        if (units.empty()) return;
        nemesis_.isolate_one_way(units[fault_rng_.below(units.size())], e.len,
                                 e.inbound, e.lossy);
        break;
      }
      case FaultKind::kClockSkew: {
        auto units = harness_.fault_units(s);
        if (units.empty()) return;
        nemesis_.skew_clocks(units[fault_rng_.below(units.size())], e.delay_hi,
                             e.len);
        break;
      }
      case FaultKind::kDropWindow:
        nemesis_.drop_messages(e.intensity, e.len);
        break;
      case FaultKind::kDelayWindow:
        nemesis_.delay_messages(e.delay_hi, e.len);
        break;
    }
  }

  RunResult finish() {
    result_.submitted = payloads_.size();
    result_.dropped = nemesis_.dropped();
    result_.held = nemesis_.held_at_partition();
    apply_end_of_run_checks(result_, harness_, w_);

    if (w_.capture_trace) {
      result_.fingerprint = fnv1a(harness_.trace());
    }
    result_.fingerprint =
        fnv1a(std::to_string(result_.submitted) + "," +
                  std::to_string(result_.decided) + "," +
                  std::to_string(result_.committed),
              result_.fingerprint ? result_.fingerprint : 0xcbf29ce484222325ULL);
    return result_;
  }

  WorkloadT w_;
  Schedule schedule_;
  Harness harness_;
  Nemesis nemesis_;
  Rng workload_rng_;
  Rng fault_rng_;
  /// Dedicated rng for the snapshot-read mix (see maybe_issue_reads): keeps
  /// the update trace independent of read_fraction.
  Rng read_rng_;
  store::ContendedPayloadGen gen_;
  std::map<TxnId, Payload> payloads_;
  /// Transactions queued for the next batched submission (batch_size > 1).
  std::vector<std::pair<TxnId, Payload>> pending_;
  RunResult result_;
};

}  // namespace

RunResult run_commit_workload(std::uint64_t seed, const CommitWorkloadOptions& w,
                              const Schedule& schedule) {
  return FaultDriver<store::CommitHarness>(seed, w, schedule).run();
}

RunResult run_rdma_workload(std::uint64_t seed, const RdmaWorkloadOptions& w,
                            const Schedule& schedule) {
  return FaultDriver<store::RdmaHarness>(seed, w, schedule).run();
}

RunResult run_baseline_workload(std::uint64_t seed, const BaselineWorkloadOptions& w,
                                const Schedule& schedule) {
  return FaultDriver<store::BaselineHarness>(seed, w, schedule).run();
}

RunResult run_baseline_coop_workload(std::uint64_t seed,
                                     const BaselineCoopWorkloadOptions& w,
                                     const Schedule& schedule) {
  return FaultDriver<store::BaselineCoopHarness>(seed, w, schedule).run();
}

RunResult run_paxos_commit_workload(std::uint64_t seed,
                                    const PaxosCommitWorkloadOptions& w,
                                    const Schedule& schedule) {
  return FaultDriver<store::PaxosCommitHarness>(seed, w, schedule).run();
}

RunResult run_paxos_workload(std::uint64_t seed, const PaxosWorkloadOptions& w,
                             const Schedule& schedule) {
  return FaultDriver<PaxosHarness>(seed, w, schedule).run();
}

int sweep_seed_count(int fallback) {
  const char* env = std::getenv("RATC_SWEEP_SEEDS");
  if (env == nullptr) return fallback;
  int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

}  // namespace ratc::harness
