// Workload generators: synthetic transaction mixes with controllable
// contention (uniform or zipfian key choice), read/write ratio and
// multi-shard span — the substitution for the production traces the FARM
// papers evaluate on, which are not public.
#pragma once

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "store/executor.h"
#include "store/versioned_store.h"
#include "tcs/payload.h"

namespace ratc::store {

struct WorkloadOptions {
  std::uint64_t objects = 1000;
  /// 0 = uniform; YCSB-style zipfian skew otherwise (e.g. 0.99).
  double zipf_theta = 0.0;
  std::size_t ops_per_txn = 4;
  double write_fraction = 0.5;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadOptions options, std::uint64_t seed)
      : options_(options),
        rng_(seed),
        zipf_(options.objects, options.zipf_theta > 0 ? options.zipf_theta : 0.01) {}

  /// Executes one synthetic transaction against the committed store and
  /// returns its payload.
  tcs::Payload next(const VersionedStore& db) {
    TransactionExecutor exec(db);
    for (std::size_t i = 0; i < options_.ops_per_txn; ++i) {
      ObjectId obj = pick_object();
      if (rng_.chance(options_.write_fraction)) {
        exec.write(obj, static_cast<Value>(rng_.below(1'000'000)));
      } else {
        exec.read(obj);
      }
    }
    return exec.finish();
  }

  Rng& rng() { return rng_; }

 private:
  ObjectId pick_object() {
    if (options_.zipf_theta > 0) return zipf_.sample(rng_);
    return rng_.below(options_.objects);
  }

  WorkloadOptions options_;
  Rng rng_;
  Zipfian zipf_;
};

/// Bank-transfer workload (the classical atomic-commit motivation): a fixed
/// set of accounts with balances; each transaction moves money between two
/// accounts, usually on different shards.  Total balance is conserved by
/// committed transfers — the end-to-end invariant the examples check.
class BankWorkload {
 public:
  BankWorkload(std::uint64_t accounts, Value initial_balance, std::uint64_t seed)
      : accounts_(accounts), initial_balance_(initial_balance), rng_(seed) {}

  /// Initial database state: every account at the initial balance, version 1.
  /// Apply to the committed store before running transfers.
  tcs::Payload seed_payload() const {
    tcs::Payload p;
    for (ObjectId a = 0; a < accounts_; ++a) p.writes.push_back({a, initial_balance_});
    p.commit_version = 1;
    return p;
  }

  tcs::Payload next_transfer(const VersionedStore& db) {
    ObjectId from = rng_.below(accounts_);
    ObjectId to = rng_.below(accounts_);
    while (to == from) to = rng_.below(accounts_);
    Value amount = 1 + static_cast<Value>(rng_.below(10));
    TransactionExecutor exec(db);
    Value from_balance = exec.read(from);
    Value to_balance = exec.read(to);
    exec.write(from, from_balance - amount);
    exec.write(to, to_balance + amount);
    return exec.finish();
  }

  Value total_balance(const VersionedStore& db) const {
    Value total = 0;
    for (ObjectId a = 0; a < accounts_; ++a) total += db.read(a).value;
    return total;
  }

  Value expected_total() const {
    return static_cast<Value>(accounts_) * initial_balance_;
  }

  std::uint64_t accounts() const { return accounts_; }

 private:
  std::uint64_t accounts_;
  Value initial_balance_;
  Rng rng_;
};

}  // namespace ratc::store
