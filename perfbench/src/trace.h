// Tracing hooks of the benchmark, all outside the program under test:
//
//  * TraceTap, a sim::NetworkObserver, records every message at send and
//    at delivery.  Sends and deliveries are matched per (sender, receiver)
//    channel in FIFO order — the runtimes' channel guarantee — which gives
//    each message's inbox wait.  Spans of sampled transactions (keyed by
//    the TxnId read from the commit message structs) are kept in memory
//    and written out when the benchmark ends.
//  * TimingRuntime, an rt::Runtime decorator, wraps every spawned process
//    and every timer closure and times the handler and timer bodies, keyed
//    by message type and process role.
//
// Both are off the measured path unless a run asks for a trace.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rt/runtime.h"
#include "rt/threaded_runtime.h"
#include "sim/network.h"
#include "sim/process.h"

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns();

/// Seconds elapsed since a now_ns() reading.
inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The transaction a commit-protocol message is about (the first item's,
/// for batches); nullopt for other messages.
std::optional<ratc::TxnId> txn_of(const ratc::sim::AnyMessage& msg);

/// Matches deliveries to sends per (from, to) channel in FIFO order.  Not
/// thread-safe; TraceTap guards it.
class ChannelMatcher {
 public:
  void on_send(ratc::ProcessId from, ratc::ProcessId to, std::int64_t t);
  /// The matched send time, or nullopt if the channel has no pending send.
  std::optional<std::int64_t> on_deliver(ratc::ProcessId from, ratc::ProcessId to);
  /// The most recent send on the channel was dropped at send time.
  void on_drop(ratc::ProcessId from, ratc::ProcessId to);
  std::size_t pending() const;

 private:
  static std::uint64_t key(ratc::ProcessId from, ratc::ProcessId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  std::unordered_map<std::uint64_t, std::deque<std::int64_t>> channels_;
};

/// One message of a sampled transaction, send to delivery.
struct Span {
  ratc::TxnId txn = 0;
  const char* type = "";
  ratc::ProcessId from = 0, to = 0;
  std::int64_t send_ns = 0, deliver_ns = 0;
};

struct TypeTraffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

class TraceTap final : public ratc::sim::NetworkObserver {
 public:
  /// Spans are kept for transactions whose id is a multiple of this.
  static constexpr ratc::TxnId kSpanSampling = 64;

  void on_send(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
               const ratc::sim::AnyMessage& msg) override;
  void on_deliver(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
                  const ratc::sim::AnyMessage& msg) override;
  void on_drop(ratc::Time now, ratc::ProcessId from, ratc::ProcessId to,
               const ratc::sim::AnyMessage& msg) override;

  /// Recording on/off (sends made while off are still matched, so waits
  /// stay correct across the switch).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Results; call only once no thread delivers any more.
  std::vector<double> inbox_wait_us() const;
  std::map<std::string, TypeTraffic> traffic() const;  ///< sent, by message type
  std::vector<Span> spans() const;

 private:
  static constexpr std::size_t kStripes = 64;
  static constexpr std::size_t kMaxWaitsPerStripe = 1 << 18;
  struct Stripe {
    std::mutex mu;
    ChannelMatcher matcher;
    std::vector<float> waits_us;
    std::map<const char*, TypeTraffic> traffic;
    std::vector<Span> spans;
  };
  Stripe& stripe(ratc::ProcessId from, ratc::ProcessId to) {
    return stripes_[(from * 31u + to) % kStripes];
  }
  std::atomic<bool> enabled_{true};
  std::array<Stripe, kStripes> stripes_;
};

/// Writes spans as CSV (txn,type,from,to,send_ns,deliver_ns).  Returns
/// false if the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Busy time of handler or timer bodies.
struct BodyTime {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
};

/// Handler and timer timings gathered by a TimingRuntime.
struct RuntimeTimings {
  /// (role, message type) -> handler time.
  std::map<std::pair<std::string, std::string>, BodyTime> handlers;
  /// role -> timer time.
  std::map<std::string, BodyTime> timers;
};

/// rt::Runtime decorator that times every handler and timer body.  Protocol
/// objects bind to it instead of the inner runtime; it forwards everything.
class TimingRuntime final : public ratc::rt::Runtime {
 public:
  /// Maps a process id to an index into the role names; must be a pure
  /// function of the id (it is called from every worker thread).
  using RoleOf = std::function<int(ratc::ProcessId)>;

  TimingRuntime(ratc::rt::ThreadedRuntime& inner, std::vector<std::string> role_names,
                RoleOf role_of);
  ~TimingRuntime() override;

  TimingRuntime(const TimingRuntime&) = delete;
  TimingRuntime& operator=(const TimingRuntime&) = delete;

  ratc::Time now() const override { return inner_.now(); }
  ratc::Rng& rng() override { return inner_.rng(); }
  void spawn(ratc::sim::Process* p) override;
  void crash(ratc::ProcessId id) override { inner_.crash(id); }
  bool crashed(ratc::ProcessId id) const override { return inner_.crashed(id); }
  void schedule(ratc::Duration delay, std::function<void()> fn) override;
  void schedule_for(ratc::ProcessId owner, ratc::Duration delay,
                    std::function<void()> fn) override;
  void send(ratc::ProcessId from, ratc::ProcessId to, ratc::sim::AnyMessage msg) override {
    inner_.send(from, to, std::move(msg));
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Merged timings; call only after the inner runtime stopped.
  RuntimeTimings timings() const;

 private:
  class TimedProcess;
  struct Accumulator {
    std::map<std::pair<int, const char*>, BodyTime> handlers;
    std::map<int, BodyTime> timers;
  };
  Accumulator& local();
  void record_handler(int role, const char* type, std::int64_t ns);
  void record_timer(int role, std::int64_t ns);

  ratc::rt::ThreadedRuntime& inner_;
  std::vector<std::string> role_names_;
  RoleOf role_of_;
  std::uint64_t id_;
  std::atomic<bool> enabled_{true};
  std::vector<std::unique_ptr<TimedProcess>> wrappers_;
  mutable std::mutex acc_mu_;
  std::vector<std::unique_ptr<Accumulator>> accumulators_;
};

}  // namespace perfbench
