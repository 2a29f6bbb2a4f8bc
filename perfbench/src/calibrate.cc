#include "calibrate.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kObjects = 1 << 14;
constexpr int kEvents = 8000;
constexpr int kPasses = 5;

struct Event {
  std::uint64_t at;
  std::uint32_t object;
  bool operator>(const Event& o) const { return at > o.at; }
};

std::int64_t cpu_ns(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One pass of the job: a discrete-event loop whose handlers are closures
/// that update a per-object list of recent versions in a hash map.
std::uint64_t job_pass() {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> state;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 64; ++i) {
    queue.push({next() % 16, static_cast<std::uint32_t>(next() % kObjects)});
  }
  for (int i = 0; i < kEvents; ++i) {
    Event e = queue.top();
    queue.pop();
    std::vector<std::uint64_t>& versions = state[e.object];
    std::function<void()> handler = [&versions, &sum, e] {
      versions.push_back(e.at);
      if (versions.size() > 8) versions.erase(versions.begin());
      for (std::uint64_t v : versions) sum += v;
    };
    handler();
    queue.push({e.at + 1 + next() % 16, static_cast<std::uint32_t>(next() % kObjects)});
  }
  return sum;
}

}  // namespace

std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t reference_job_ns() {
  static std::uint64_t sink = 0;  // keeps the passes from being optimised away
  const std::int64_t t0 = thread_cpu_ns();
  for (int p = 0; p < kPasses; ++p) sink += job_pass();
  return thread_cpu_ns() - t0;
}

double HostSpeed::factor() const { return kNominalNs / median(job_ns_); }

void print_host_speed(const HostSpeed& speed) {
  const std::vector<double>& t = speed.job_ns();
  std::printf("info host speed factor %.3f: reference job median %.2f ms, min %.2f, max %.2f "
              "over %zu samples (raw time = calibrated / factor)\n",
              speed.factor(), median(t) / 1e6, *std::min_element(t.begin(), t.end()) / 1e6,
              *std::max_element(t.begin(), t.end()) / 1e6, t.size());
}

}  // namespace perfbench
