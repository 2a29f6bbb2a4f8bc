#include "client_load.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace perfbench {

using ratc::ProcessId;
using ratc::TxnId;
namespace tcs = ratc::tcs;

ClientLoad::ClientLoad(ratc::rt::Runtime& rt, std::vector<ProcessId> coordinators,
                       std::size_t clients, ProcessId first_pid, std::uint64_t seed,
                       VersionView& view, const ratc::Zipfian* zipf)
    : rt_(rt), view_(view), zipf_(zipf) {
  if (coordinators.empty() || clients == 0) {
    throw std::invalid_argument("ClientLoad needs coordinators and clients");
  }
  for (std::size_t i = 0; i < clients; ++i) {
    auto c = std::make_unique<Client>();
    c->index = i;
    c->history = std::make_unique<tcs::History>();
    c->proc = std::make_unique<ratc::commit::Client>(
        rt_, first_pid + static_cast<ProcessId>(i), c->history.get());
    c->gen = std::make_unique<PayloadGen>(derive_seed(seed, 100 + i), view_, zipf_);
    c->coordinator = coordinators[i % coordinators.size()];
    Client* cp = c.get();
    c->proc->on_decision = [this, cp](TxnId txn, tcs::Decision d) { on_decision(*cp, txn, d); };
    rt_.spawn(c->proc.get());
    clients_.push_back(std::move(c));
  }
}

ClientLoad::~ClientLoad() = default;

void ClientLoad::begin(Client& c, const PhaseSpec& spec, std::uint64_t phase,
                       std::int64_t start_ns) {
  c.spec = spec;
  c.phase = phase;
  c.submitted = 0;
  c.inflight = 0;
  c.start_ns = start_ns;
  c.pending.clear();
  const std::size_t n = clients_.size();
  c.quota = spec.txns == 0 ? SIZE_MAX : spec.txns / n + (c.index < spec.txns % n ? 1 : 0);
  if (spec.rate > 0) {
    pace(c);
  } else {
    pump(c);
  }
}

void ClientLoad::pump(Client& c) {
  const std::size_t batch = std::max<std::size_t>(1, c.spec.batch);
  while (!stop_.load() && c.submitted < c.quota && c.inflight + batch <= c.spec.window) {
    submit(c, std::min(batch, c.quota - c.submitted), now_ns());
  }
}

void ClientLoad::pace(Client& c) {
  if (c.phase != phase_.load()) return;  // a pacer outliving its phase
  std::int64_t now = now_ns();
  while (!stop_.load() && c.submitted < c.quota) {
    std::int64_t due = due_ns(c.start_ns, c.spec.rate, clients_.size(), c.index, c.submitted);
    if (due > now) break;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      c.lag_us.push_back(account_from_due(due, now, now).lag_us);
    }
    submit(c, 1, due);
  }
  if (!stop_.load() && c.submitted < c.quota) {
    Client* cp = &c;
    rt_.schedule_for(c.proc->id(), 1, [this, cp] { pace(*cp); });
  }
}

void ClientLoad::submit(Client& c, std::size_t n, std::int64_t t0_ns) {
  std::vector<std::pair<TxnId, tcs::Payload>> batch;
  batch.reserve(n);
  TxnId first = next_txn_.fetch_add(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.emplace_back(first + i, c.gen->next());
    c.pending[first + i] = t0_ns;
  }
  if (c.submitted == 0) {
    std::lock_guard<std::mutex> lock(c.mu);
    c.first_submit_ns = now_ns();
  }
  c.submitted += n;
  c.inflight += n;
  attempted_.fetch_add(n);
  c.proc->certify_batch_remote(c.coordinator, batch);
}

void ClientLoad::on_decision(Client& c, TxnId txn, tcs::Decision d) {
  // Every commit feeds the shared view, even one from an earlier phase.
  if (d == tcs::Decision::kCommit) {
    if (const tcs::Payload* p = c.history->payload_of(txn)) view_.observe_commit(*p);
  }
  // Ignore decisions of an earlier phase's transactions (failed at its
  // deadline), including ones landing before this client began the next.
  auto it = c.pending.find(txn);
  if (it == c.pending.end()) return;
  if (c.phase != phase_.load()) {
    c.pending.erase(it);
    return;
  }
  std::int64_t now = now_ns();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    c.lat_us.push_back(static_cast<double>(now - it->second) / 1000.0);
    c.last_decision_ns = now;
  }
  c.pending.erase(it);
  --c.inflight;
  if (d == tcs::Decision::kCommit) committed_.fetch_add(1);
  decided_.fetch_add(1);
  if (c.spec.rate == 0) pump(c);
}

PhaseResult ClientLoad::run(const PhaseSpec& spec) {
  attempted_.store(0);
  decided_.store(0);
  committed_.store(0);
  stop_.store(false);
  for (auto& c : clients_) {
    std::lock_guard<std::mutex> lock(c->mu);
    c->lat_us.clear();
    c->lag_us.clear();
    c->first_submit_ns = 0;
    c->last_decision_ns = 0;
  }
  const std::uint64_t phase = phase_.fetch_add(1) + 1;
  // Open-loop due times start a little ahead so every pacer is armed first.
  const std::int64_t start = now_ns() + (spec.rate > 0 ? 2'000'000 : 0);
  for (auto& c : clients_) {
    Client* cp = c.get();
    rt_.schedule_for(cp->proc->id(), 0,
                     [this, cp, spec, phase, start] { begin(*cp, spec, phase, start); });
  }

  PhaseResult r;
  std::int64_t window_end = 0;
  std::int64_t t = start;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    t = now_ns();
    const double elapsed = static_cast<double>(t - start) / 1e9;
    if (spec.duration_s > 0 && window_end == 0 && elapsed >= spec.duration_s) {
      stop_.store(true);
      window_end = t;
      r.committed_in_window = committed_.load();
    }
    const bool submitted_all =
        spec.duration_s > 0 ? window_end != 0 && t - window_end > 2'000'000
                            : attempted_.load() == spec.txns;
    if (submitted_all && decided_.load() == attempted_.load()) break;
    if (elapsed >= spec.deadline_s) break;
  }
  stop_.store(true);

  r.attempted = attempted_.load();
  r.decided = decided_.load();
  r.committed = committed_.load();
  std::int64_t first = 0, last = 0;
  for (auto& c : clients_) {
    std::lock_guard<std::mutex> lock(c->mu);
    r.lat_us.insert(r.lat_us.end(), c->lat_us.begin(), c->lat_us.end());
    r.lag_us.insert(r.lag_us.end(), c->lag_us.begin(), c->lag_us.end());
    if (c->first_submit_ns != 0 && (first == 0 || c->first_submit_ns < first)) {
      first = c->first_submit_ns;
    }
    last = std::max(last, c->last_decision_ns);
  }
  // A phase that failed transactions ran to its deadline.
  if (r.decided < r.attempted) last = t;
  r.wall_s = first != 0 && last > first ? static_cast<double>(last - first) / 1e9 : 0;
  if (spec.duration_s > 0) {
    r.window_s = window_end != 0 ? static_cast<double>(window_end - start) / 1e9 : r.wall_s;
    if (window_end == 0) r.committed_in_window = r.committed;
  } else {
    r.committed_in_window = r.committed;
    r.window_s = r.wall_s;
  }
  return r;
}

tcs::History ClientLoad::merged_history() const {
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

std::vector<tcs::Payload> ClientLoad::sample_payloads(std::size_t n, std::uint64_t seed) const {
  PayloadGen gen(seed, view_, zipf_);
  std::vector<tcs::Payload> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next());
  return out;
}

}  // namespace perfbench
