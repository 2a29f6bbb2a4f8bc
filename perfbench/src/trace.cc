#include "trace.h"

#include <chrono>
#include <cstdio>

#include "commit/messages.h"

namespace perfbench {

using ratc::ProcessId;
using ratc::TxnId;
namespace commit = ratc::commit;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
template <class Batch>
std::optional<TxnId> first_txn(const Batch* b) {
  if (b == nullptr || b->items.empty()) return std::nullopt;
  return b->items.front().txn;
}
}  // namespace

std::optional<TxnId> txn_of(const ratc::sim::AnyMessage& msg) {
  if (const auto* m = msg.as<commit::CertifyRequest>()) return m->txn;
  if (const auto* m = msg.as<commit::Prepare>()) return m->txn;
  if (const auto* m = msg.as<commit::PrepareAck>()) return m->txn;
  if (const auto* m = msg.as<commit::Accept>()) return m->txn;
  if (const auto* m = msg.as<commit::AcceptAck>()) return m->txn;
  if (const auto* m = msg.as<commit::DecisionMsg>()) return m->txn;
  if (const auto* m = msg.as<commit::ClientDecision>()) return m->txn;
  if (auto t = first_txn(msg.as<commit::CertifyBatchRequest>())) return t;
  if (auto t = first_txn(msg.as<commit::PrepareBatch>())) return t;
  if (auto t = first_txn(msg.as<commit::PrepareAckBatch>())) return t;
  if (auto t = first_txn(msg.as<commit::AcceptBatch>())) return t;
  if (auto t = first_txn(msg.as<commit::AcceptAckBatch>())) return t;
  return std::nullopt;
}

// --- ChannelMatcher -----------------------------------------------------------

void ChannelMatcher::on_send(ProcessId from, ProcessId to, std::int64_t t) {
  channels_[key(from, to)].push_back(t);
}

std::optional<std::int64_t> ChannelMatcher::on_deliver(ProcessId from, ProcessId to) {
  auto it = channels_.find(key(from, to));
  if (it == channels_.end() || it->second.empty()) return std::nullopt;
  std::int64_t t = it->second.front();
  it->second.pop_front();
  return t;
}

void ChannelMatcher::on_drop(ProcessId from, ProcessId to) {
  auto it = channels_.find(key(from, to));
  if (it != channels_.end() && !it->second.empty()) it->second.pop_back();
}

std::size_t ChannelMatcher::pending() const {
  std::size_t n = 0;
  for (const auto& [k, q] : channels_) n += q.size();
  return n;
}

// --- TraceTap -------------------------------------------------------------------

void TraceTap::on_send(ratc::Time, ProcessId from, ProcessId to,
                       const ratc::sim::AnyMessage& msg) {
  std::int64_t t = now_ns();
  Stripe& s = stripe(from, to);
  std::lock_guard<std::mutex> lock(s.mu);
  s.matcher.on_send(from, to, t);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TypeTraffic& tt = s.traffic[msg.type_name()];
  ++tt.msgs;
  tt.bytes += msg.wire_size();
}

void TraceTap::on_deliver(ratc::Time, ProcessId from, ProcessId to,
                          const ratc::sim::AnyMessage& msg) {
  std::int64_t t = now_ns();
  std::optional<TxnId> txn;
  if (enabled_.load(std::memory_order_relaxed)) txn = txn_of(msg);
  Stripe& s = stripe(from, to);
  std::lock_guard<std::mutex> lock(s.mu);
  std::optional<std::int64_t> sent = s.matcher.on_deliver(from, to);
  if (!sent || !enabled_.load(std::memory_order_relaxed)) return;
  if (s.waits_us.size() < kMaxWaitsPerStripe) {
    s.waits_us.push_back(static_cast<float>((t - *sent) / 1000.0));
  }
  if (txn && *txn % kSpanSampling == 0) {
    s.spans.push_back(Span{*txn, msg.type_name(), from, to, *sent, t});
  }
}

void TraceTap::on_drop(ratc::Time, ProcessId from, ProcessId to,
                       const ratc::sim::AnyMessage&) {
  Stripe& s = stripe(from, to);
  std::lock_guard<std::mutex> lock(s.mu);
  s.matcher.on_drop(from, to);
}

std::vector<double> TraceTap::inbox_wait_us() const {
  std::vector<double> out;
  for (const Stripe& s : stripes_) out.insert(out.end(), s.waits_us.begin(), s.waits_us.end());
  return out;
}

std::map<std::string, TypeTraffic> TraceTap::traffic() const {
  std::map<std::string, TypeTraffic> out;
  for (const Stripe& s : stripes_) {
    for (const auto& [type, tt] : s.traffic) {
      TypeTraffic& o = out[type];
      o.msgs += tt.msgs;
      o.bytes += tt.bytes;
    }
  }
  return out;
}

std::vector<Span> TraceTap::spans() const {
  std::vector<Span> out;
  for (const Stripe& s : stripes_) out.insert(out.end(), s.spans.begin(), s.spans.end());
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "txn,type,from,to,send_ns,deliver_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%s,%u,%u,%lld,%lld\n", static_cast<unsigned long long>(s.txn),
                 s.type, s.from, s.to, static_cast<long long>(s.send_ns),
                 static_cast<long long>(s.deliver_ns));
  }
  return std::fclose(f) == 0;
}

// --- TimingRuntime ------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_next_runtime_id{1};
/// The accumulator this thread writes for the runtime with the given id.
struct LocalAccumulator {
  std::uint64_t runtime_id = 0;
  void* acc = nullptr;
};
thread_local LocalAccumulator t_local;
}  // namespace

/// Stands in for a protocol process at the inner runtime: same id, and
/// every delivery forwarded to the real process under a timer.
class TimingRuntime::TimedProcess final : public ratc::sim::Process {
 public:
  TimedProcess(TimingRuntime& owner, ratc::sim::Process* target)
      : Process(owner.inner_, target->id(), target->name()),
        owner_(owner),
        target_(target),
        role_(owner.role_of_(target->id())) {}

  void on_message(ProcessId from, const ratc::sim::AnyMessage& msg) override {
    if (!owner_.enabled_.load(std::memory_order_relaxed)) {
      target_->on_message(from, msg);
      return;
    }
    std::int64_t t0 = now_ns();
    target_->on_message(from, msg);
    owner_.record_handler(role_, msg.type_name(), now_ns() - t0);
  }

 private:
  TimingRuntime& owner_;
  ratc::sim::Process* target_;
  int role_;
};

TimingRuntime::TimingRuntime(ratc::rt::ThreadedRuntime& inner,
                             std::vector<std::string> role_names, RoleOf role_of)
    : inner_(inner),
      role_names_(std::move(role_names)),
      role_of_(std::move(role_of)),
      id_(g_next_runtime_id.fetch_add(1)) {}

TimingRuntime::~TimingRuntime() = default;

void TimingRuntime::spawn(ratc::sim::Process* p) {
  wrappers_.push_back(std::make_unique<TimedProcess>(*this, p));
  inner_.spawn(wrappers_.back().get());
}

void TimingRuntime::schedule(ratc::Duration delay, std::function<void()> fn) {
  schedule_for(ratc::kNoProcess, delay, std::move(fn));
}

void TimingRuntime::schedule_for(ProcessId owner, ratc::Duration delay,
                                 std::function<void()> fn) {
  int role = owner == ratc::kNoProcess ? -1 : role_of_(owner);
  inner_.schedule_for(owner, delay, [this, role, fn = std::move(fn)] {
    if (!enabled_.load(std::memory_order_relaxed)) {
      fn();
      return;
    }
    std::int64_t t0 = now_ns();
    fn();
    record_timer(role, now_ns() - t0);
  });
}

TimingRuntime::Accumulator& TimingRuntime::local() {
  if (t_local.runtime_id != id_) {
    std::lock_guard<std::mutex> lock(acc_mu_);
    accumulators_.push_back(std::make_unique<Accumulator>());
    t_local = LocalAccumulator{id_, accumulators_.back().get()};
  }
  return *static_cast<Accumulator*>(t_local.acc);
}

void TimingRuntime::record_handler(int role, const char* type, std::int64_t ns) {
  BodyTime& b = local().handlers[{role, type}];
  ++b.count;
  b.ns += static_cast<std::uint64_t>(ns);
}

void TimingRuntime::record_timer(int role, std::int64_t ns) {
  BodyTime& b = local().timers[role];
  ++b.count;
  b.ns += static_cast<std::uint64_t>(ns);
}

RuntimeTimings TimingRuntime::timings() const {
  auto name = [this](int role) -> std::string {
    return role >= 0 && static_cast<std::size_t>(role) < role_names_.size() ? role_names_[role]
                                                                             : "other";
  };
  RuntimeTimings out;
  std::lock_guard<std::mutex> lock(acc_mu_);
  for (const auto& acc : accumulators_) {
    for (const auto& [key, b] : acc->handlers) {
      BodyTime& o = out.handlers[{name(key.first), key.second}];
      o.count += b.count;
      o.ns += b.ns;
    }
    for (const auto& [role, b] : acc->timers) {
      BodyTime& o = out.timers[name(role)];
      o.count += b.count;
      o.ns += b.ns;
    }
  }
  return out;
}

}  // namespace perfbench
