#include "rt/loadgen.h"

#include <algorithm>
#include <cassert>

#include "rt/commit_system.h"

namespace ratc::rt {

LoadGen::LoadGen(Runtime& rt, std::vector<ProcessId> coordinators, Options options)
    : rt_(rt), options_(options), coordinators_(std::move(coordinators)) {
  assert(!coordinators_.empty());
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.window == 0) options_.window = 1;
  clients_.reserve(options_.clients);
  for (std::size_t i = 0; i < options_.clients; ++i) {
    auto c = std::make_unique<ClientState>();
    c->history = std::make_unique<tcs::History>();
    c->proc = std::make_unique<commit::Client>(
        rt_, CommitSystem::kClientBase + static_cast<ProcessId>(i), c->history.get());
    c->rng = std::make_unique<Rng>(options_.seed * 6364136223846793005ULL + i + 1);
    c->gen = std::make_unique<store::ContendedPayloadGen>(*c->rng, options_.keyspace);
    c->coordinator = coordinators_[i % coordinators_.size()];
    ClientState* cp = c.get();
    // Decision callback: runs on the client's worker — the same thread as
    // every submission, so ClientState needs no lock.
    c->proc->on_decision = [this, cp](TxnId txn, tcs::Decision d) {
      if (d == tcs::Decision::kCommit) {
        if (const tcs::Payload* p = cp->history->payload_of(txn)) {
          cp->gen->observe_commit(*p);
        }
      }
      decided_.fetch_add(1, std::memory_order_acq_rel);
      if (cp->inflight > 0) --cp->inflight;
      pump(*cp);
    };
    rt_.spawn(c->proc.get());
    clients_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::start() {
  for (auto& c : clients_) {
    ClientState* cp = c.get();
    rt_.schedule_for(cp->proc->id(), 0, [this, cp] { pump(*cp); });
  }
}

void LoadGen::pump(ClientState& c) {
  while (c.submitted < options_.txns_per_client &&
         c.inflight < options_.window * options_.batch_size) {
    submit_batch(c);
  }
}

void LoadGen::submit_batch(ClientState& c) {
  std::size_t n = std::min(options_.batch_size,
                           options_.txns_per_client - c.submitted);
  if (n == 0) return;
  std::vector<std::pair<TxnId, tcs::Payload>> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TxnId txn = next_txn_.fetch_add(1, std::memory_order_relaxed);
    batch.emplace_back(txn, c.gen->next());
  }
  c.submitted += n;
  c.inflight += n;
  c.proc->certify_batch_remote(c.coordinator, batch);
}

tcs::History LoadGen::merged_history() const {
  // Gather every client's events and replay them in time order.
  std::vector<const tcs::HistoryEvent*> events;
  for (const auto& c : clients_) {
    for (const tcs::HistoryEvent& e : c->history->events()) events.push_back(&e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const tcs::HistoryEvent* a, const tcs::HistoryEvent* b) {
                     return a->time < b->time;
                   });
  tcs::History merged;
  for (const tcs::HistoryEvent* e : events) {
    if (e->kind == tcs::HistoryEvent::Kind::kCertify) {
      merged.record_certify(e->time, e->txn, e->payload);
    } else {
      merged.record_decide(e->time, e->txn, e->decision);
    }
  }
  return merged;
}

}  // namespace ratc::rt
