// Controller-facing tuning.  The PlacementPolicy extension point lives in
// the shared reconfiguration module (src/recon/placement.h): controllers and
// replica-driven reconfigurations consult the cluster's one placement_policy.
// ControllerTuning is what is genuinely controller-specific and settable:
// the failure-detector cadence.  The hysteresis and watchdog timings are
// ReconController constants.
#pragma once

#include "fd/failure_detector.h"

namespace ratc::ctrl {

/// Timing knobs of a ReconController, separated out so cluster harnesses
/// and StackWorkload can pass them through untouched.
struct ControllerTuning {
  /// Failure-detector cadence for member watching.
  fd::PingMonitor::Options fd{};
};

}  // namespace ratc::ctrl
