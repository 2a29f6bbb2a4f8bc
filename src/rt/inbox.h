// Inbox of the threaded runtime: every process owns one, any thread may
// produce into it, only the owning worker consumes.
//
// One unbounded queue made of lanes.  Each worker of the owning runtime has
// its own single-producer lane; one more, the shared lane, takes every other
// thread (protocol constructors that send before start(), a test's main
// thread, threads of another runtime), whose producers serialise on its
// mutex.  A lane is a linked list of fixed-size blocks: the producer fills
// the tail block and publishes a count, the consumer drains the head block
// and hands it back through a one-block spare.  So a steady-state push or
// pop takes no lock, no CAS and no allocation, and the memory follows the
// mail in flight.  One producer per lane is what lets the consumer recycle
// a drained block at once: no other thread can still be about to write it.
//
// FIFO: a sender's mail to one receiver always goes through one lane,
// because a process's handlers and timers all run on its own worker.  The
// one exception is mail sent before start(), from the shared lane; drain()
// polls that lane first and all of it is visible from the first poll on, so
// it precedes whatever the sender later sends from its worker.
//
// The queue never blocks a producer.  Overload therefore shows up as memory,
// not as a stall; bounding it is admission control's job, above this layer.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/types.h"
#include "sim/message.h"

namespace ratc::rt {

struct Envelope {
  ProcessId from = kNoProcess;
  sim::AnyMessage msg;
};

class Inbox {
 public:
  /// `workers` single-producer lanes, numbered 0..workers-1, plus the
  /// shared lane, numbered `workers`.
  explicit Inbox(std::size_t workers)
      : workers_(workers), lanes_(std::make_unique<Lane[]>(workers + 1)) {}

  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  std::size_t shared_lane() const { return workers_; }

  /// Appends `e` to `lane`.  A worker lane must only ever be pushed by its
  /// one thread; the shared lane takes any thread.
  void push(std::size_t lane, Envelope e) {
    if (lane != workers_) return lanes_[lane].push(std::move(e));
    std::lock_guard<std::mutex> lock(shared_mu_);
    lanes_[lane].push(std::move(e));
  }

  /// Consumer only: hands up to `budget` envelopes to `fn(Envelope&)` and
  /// returns the count.  The shared lane goes first; then the worker lanes
  /// give one envelope each in turn, which keeps mail from different
  /// workers close to arrival order and lets no busy lane starve another.
  /// Each lane's published count is read once per call.
  template <typename Fn>
  std::size_t drain(std::size_t budget, Fn&& fn) {
    std::size_t n = 0;
    for (std::size_t l = 0; l <= workers_; ++l) lanes_[l].snapshot();
    while (n < budget && lanes_[workers_].pop(fn)) ++n;
    for (bool more = true; more && n < budget;) {
      more = false;
      for (std::size_t l = 0; l < workers_ && n < budget; ++l) {
        if (lanes_[l].pop(fn)) {
          ++n;
          more = true;
        }
      }
    }
    return n;
  }

 private:
  /// With one spare, any burst of up to a block's worth between two drains
  /// recycles without allocating; 64 is the runtime's drain batch.
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kCacheLine = 64;

  struct Block {
    // Engaged only between push and pop, so a drained cell holds no
    // message block.
    std::optional<Envelope> cells[kBlockSize];
    Block* next = nullptr;
  };

  struct alignas(kCacheLine) Lane {
    Lane() : tail(new Block), head(tail) {}
    ~Lane() {
      while (head != tail) delete std::exchange(head, head->next);
      delete tail;
      delete spare.load(std::memory_order_relaxed);
    }

    void push(Envelope&& e) {
      std::size_t n = pushed.load(std::memory_order_relaxed);
      std::size_t i = n % kBlockSize;
      if (i == 0 && n != 0) {
        // Only the consumer fills the spare, and only while it is empty.
        Block* b = spare.load(std::memory_order_acquire);
        if (b != nullptr) {
          spare.store(nullptr, std::memory_order_relaxed);
          b->next = nullptr;
        } else {
          b = new Block;
        }
        tail->next = b;
        tail = b;
      }
      tail->cells[i].emplace(std::move(e));
      pushed.store(n + 1, std::memory_order_release);
    }

    void snapshot() { published = pushed.load(std::memory_order_acquire); }

    /// Hands the next envelope up to the last snapshot to `fn`, if any.
    template <typename Fn>
    bool pop(Fn& fn) {
      if (popped == published) return false;
      std::size_t i = popped % kBlockSize;
      if (i == 0 && popped != 0) {
        // The producer linked head->next before publishing this envelope,
        // and never touches the drained head again.
        Block* drained = std::exchange(head, head->next);
        if (spare.load(std::memory_order_relaxed) == nullptr) {
          spare.store(drained, std::memory_order_release);
        } else {
          delete drained;
        }
      }
      std::optional<Envelope>& cell = head->cells[i];
      ++popped;
      fn(*cell);
      cell.reset();
      return true;
    }

    // Producer side.
    Block* tail;
    std::atomic<std::size_t> pushed{0};
    // Consumer side, on its own cache line.
    alignas(kCacheLine) Block* head;
    std::size_t popped = 0;
    std::size_t published = 0;  ///< `pushed` as of the last snapshot()
    std::atomic<Block*> spare{nullptr};
  };

  const std::size_t workers_;
  std::unique_ptr<Lane[]> lanes_;
  std::mutex shared_mu_;  ///< serialises the shared lane's producers
};

}  // namespace ratc::rt
