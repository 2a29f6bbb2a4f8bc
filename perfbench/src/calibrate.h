// Timing on a shared host.
//
// The virtual machines this benchmark runs on share their host with other
// tenants, which costs a run two ways:
//
//  * steal: a virtual CPU waits while the host runs someone else.  During
//    rt runs 10-50% of the busy virtual CPUs' time was stolen, in bursts of
//    milliseconds, which swung a round's wall-clock throughput from 34k to
//    92k txn/s.  CPU time leaves steal out, so costs are measured in it
//    (thread_cpu_ns, process_cpu_ns).
//  * slowdown: while it runs, a core is slower when its neighbours load the
//    caches and the memory bus; the speed of one core swung by up to a
//    factor of two over tens of seconds.  So times are also calibrated: a
//    fixed reference job, written only against the standard library (no
//    code of the system under test), is timed in CPU time at the start of
//    the run and after each measured stretch (a round, a slice, a
//    repetition), and the run's times are multiplied by kNominalNs over the
//    median of the job's times (rates divided).  A change to the system
//    under test moves a calibrated figure as it moves the raw one; a slower
//    host slows the job too, and cancels.  One factor serves the whole run:
//    the job's time jitters more from one sample to the next than the
//    workloads' do, and the median of a run's samples follows the host
//    without that jitter.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The reference job's typical CPU time on a 2.1 GHz Xeon, the scale of
/// every calibrated figure.
inline constexpr double kNominalNs = 10.0e6;

/// CPU time of the calling thread, and of the whole process, in ns.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

/// Runs the reference job and returns the CPU time it took, in ns: a small
/// discrete-event loop (a binary heap of timed events, a hash map of
/// per-object state, a closure and small heap allocations per event),
/// shaped like the simulator and runtime it calibrates.
std::int64_t reference_job_ns();

/// Samples the host's speed across a run.  Construction times the
/// reference job once; sample() times it again.
class HostSpeed {
 public:
  HostSpeed() { sample(); }
  void sample() { job_ns_.push_back(static_cast<double>(reference_job_ns())); }
  /// The run's factor: kNominalNs over the median job time.  Times are
  /// multiplied by it, rates divided.
  double factor() const;
  const std::vector<double>& job_ns() const { return job_ns_; }

 private:
  std::vector<double> job_ns_;
};

/// Prints an "info" line with the run's factor and the spread of the job's
/// times, so raw times can be recovered (raw = calibrated / factor).
void print_host_speed(const HostSpeed& speed);

}  // namespace perfbench
