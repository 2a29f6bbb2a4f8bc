#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "commit/log.h"
#include "commit/messages.h"
#include "commit/witness_index.h"
#include "common/random.h"
#include "store/versioned_store.h"
#include "tcs/shard_map.h"

namespace perfbench {

namespace commit = ratc::commit;
namespace tcs = ratc::tcs;

namespace {

/// Keeps results alive so timed calls are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Mean nanoseconds per call of f(i) over n calls.
double ns_per_call(std::size_t n, const std::function<std::uint64_t(std::size_t)>& f) {
  std::uint64_t acc = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) acc += f(i);
  std::int64_t t1 = now_ns();
  g_sink = g_sink + acc;
  return static_cast<double>(t1 - t0) / static_cast<double>(n);
}

/// A log of n decided-commit entries (the last 1% still prepared) cycling
/// through the payloads; slot k holds transaction k.
commit::ReplicaLog build_log(const std::vector<tcs::Payload>& payloads, std::size_t n) {
  commit::ReplicaLog log;
  log.at(n);  // size once
  for (std::size_t k = 1; k <= n; ++k) {
    commit::LogEntry& e = log.at(k);
    e.txn = k;
    e.payload = payloads[(k - 1) % payloads.size()];
    e.vote = tcs::Decision::kCommit;
    e.prepare_ts = k;
    if (k + n / 100 > n) {
      e.phase = commit::Phase::kPrepared;
    } else {
      e.phase = commit::Phase::kDecided;
      e.dec = tcs::Decision::kCommit;
      e.csn_ts = k;
    }
  }
  return log;
}

const char* size_label(std::size_t n) {
  return n == 1000 ? "1k" : n == 10000 ? "10k" : "100k";
}

}  // namespace

void replay_log_layers(const std::vector<tcs::Payload>& payloads,
                       const tcs::Certifier& certifier, std::uint32_t num_shards,
                       Report& out) {
  ratc::Rng rng(7);
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{100000}}) {
    commit::ReplicaLog log = build_log(payloads, n);
    const std::size_t lookups = std::max<std::size_t>(16, 2'000'000 / n);
    std::vector<ratc::TxnId> keys(lookups);
    for (auto& k : keys) k = 1 + rng.below(n);
    out.set(std::string("commit.slot_of_ns.") + size_label(n),
            ns_per_call(lookups, [&](std::size_t i) { return log.slot_of(keys[i]); }), "ns");

    commit::WitnessIndex index;
    index.rebuild(log);
    const std::size_t votes = std::min<std::size_t>(payloads.size(), 4000);
    out.set(std::string("commit.vote_ns.") + size_label(n),
            ns_per_call(votes,
                        [&](std::size_t i) {
                          return static_cast<std::uint64_t>(
                              index.vote(certifier, log, payloads[i]));
                        }),
            "ns");
  }

  // The profile's prediction: slot_of grows about linearly with the log.
  const double ns[3] = {out.value("commit.slot_of_ns.1k"), out.value("commit.slot_of_ns.10k"),
                        out.value("commit.slot_of_ns.100k")};
  for (int i = 0; i < 2; ++i) {
    const double step = ns[i + 1] / ns[i];
    std::printf("info profile: slot_of %s -> %s entries grows %.1fx (linear: 10x) -> %s\n",
                i == 0 ? "1k" : "10k", i == 0 ? "10k" : "100k", step,
                step > 5 && step < 20 ? "about linear" : "not linear");
  }

  // Certifier::vote against 16 committed and 16 prepared payloads.
  std::vector<tcs::Payload> committed, prepared;
  for (std::size_t i = 0; i < 32 && i < payloads.size(); ++i) {
    (i % 2 == 0 ? committed : prepared).push_back(payloads[i]);
  }
  const std::size_t calls = std::min<std::size_t>(payloads.size(), 20000);
  out.set("tcs.certify_ns", ns_per_call(calls,
                                        [&](std::size_t i) {
                                          return static_cast<std::uint64_t>(certifier.vote(
                                              committed, prepared, payloads[i]));
                                        }),
          "ns");

  tcs::ShardMap map(num_shards);
  out.set("tcs.project_ns", ns_per_call(calls,
                                        [&](std::size_t i) {
                                          const tcs::Payload& l = payloads[i];
                                          ratc::ShardId s = map.shard_of(l.reads.front().object);
                                          return map.project(l, s).reads.size();
                                        }),
          "ns");

  ratc::store::SnapshotStore store;
  out.set("store.snapshot_apply_ns",
          ns_per_call(calls,
                      [&](std::size_t i) {
                        store.apply_at(payloads[i], tcs::Csn{i + 1, i + 1});
                        return store.size();
                      }),
          "ns");
}

void replay_read_path(const std::vector<const commit::Replica*>& replicas,
                      const std::vector<ratc::ObjectId>& objects, Report& out) {
  double watermark_ns = 0, read_ns = 0;
  for (const commit::Replica* r : replicas) {
    watermark_ns += ns_per_call(200, [&](std::size_t) { return r->read_watermark().ts; });
    tcs::Csn snapshot = r->read_watermark();
    read_ns += ns_per_call(objects.size(), [&](std::size_t i) {
      auto v = r->snapshot_store().read_at(objects[i], snapshot);
      return v ? v->version : 0;
    });
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, replicas.size()));
  out.set("store.read_watermark_ns", watermark_ns / n, "ns");
  out.set("store.snapshot_read_ns", read_ns / n, "ns");
}

namespace {

template <class T>
double envelope_ns(const T& proto) {
  return ns_per_call(20000, [&](std::size_t) {
    ratc::sim::AnyMessage m(proto);
    return m.as<T>() != nullptr ? m.wire_size() : 0;
  });
}

template <class Batch, class Item>
Batch batch_of(const Item& item) {
  Batch b;
  b.items.assign(8, item);
  return b;
}

}  // namespace

void replay_envelopes(const std::map<std::string, TypeTraffic>& mix, Report& out) {
  tcs::Payload p;
  p.reads = {{1, 3}, {2, 5}};
  p.writes = {{1, 42}};
  p.commit_version = 6;
  commit::TxnMeta meta{7, {0, 1}, 5000};
  commit::CertifyRequest certify{7, p};
  commit::Prepare prepare{7, true, p, meta};
  commit::PrepareAck prepare_ack{1, 0, 9, 7, p, tcs::Decision::kCommit, meta, 11};
  commit::Accept accept{1, 0, 9, 7, p, tcs::Decision::kCommit, meta, 5001, 11};
  commit::AcceptAck accept_ack{0, 1, 9, 7, tcs::Decision::kCommit};
  commit::DecisionMsg decision{1, 0, 9, 7, tcs::Decision::kCommit, 11};
  commit::ClientDecision client_decision{7, tcs::Decision::kCommit, 11};

  std::map<std::string, std::function<double()>> cost = {
      {"CERTIFY", [&] { return envelope_ns(certify); }},
      {"CERTIFY_BATCH",
       [&] { return envelope_ns(batch_of<commit::CertifyBatchRequest>(certify)); }},
      {"PREPARE", [&] { return envelope_ns(prepare); }},
      {"PREPARE_BATCH", [&] { return envelope_ns(batch_of<commit::PrepareBatch>(prepare)); }},
      {"PREPARE_ACK", [&] { return envelope_ns(prepare_ack); }},
      {"PREPARE_ACK_BATCH",
       [&] { return envelope_ns(batch_of<commit::PrepareAckBatch>(prepare_ack)); }},
      {"ACCEPT", [&] { return envelope_ns(accept); }},
      {"ACCEPT_BATCH", [&] { return envelope_ns(batch_of<commit::AcceptBatch>(accept)); }},
      {"ACCEPT_ACK", [&] { return envelope_ns(accept_ack); }},
      {"ACCEPT_ACK_BATCH",
       [&] { return envelope_ns(batch_of<commit::AcceptAckBatch>(accept_ack)); }},
      {"DECISION", [&] { return envelope_ns(decision); }},
      {"DECISION_CLIENT", [&] { return envelope_ns(client_decision); }},
  };
  double weighted = 0;
  std::uint64_t total = 0;
  for (const auto& [type, traffic] : mix) {
    auto it = cost.find(type);
    if (it == cost.end() || traffic.msgs == 0) continue;
    weighted += it->second() * static_cast<double>(traffic.msgs);
    total += traffic.msgs;
  }
  out.set("sim.envelope_ns", total > 0 ? weighted / static_cast<double>(total) : 0, "ns");
}

}  // namespace perfbench
