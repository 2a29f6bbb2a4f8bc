// Multi-decree Paxos message vocabulary.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"
#include "sim/message.h"

namespace ratc::paxos {

/// Ballots are (round, proposer) pairs ordered lexicographically, so two
/// proposers can never collide on the same ballot.
struct Ballot {
  std::uint64_t round = 0;
  ProcessId proposer = kNoProcess;

  friend auto operator<=>(const Ballot&, const Ballot&) = default;
};

/// No-op command proposed by a new leader to fill log gaps.
struct Noop {
  static constexpr const char* kName = "PAXOS_NOOP";
};

/// Client-side submission, forwarded to the current leader if needed.
struct SubmitCmd {
  static constexpr const char* kName = "PAXOS_SUBMIT";
  sim::AnyMessage cmd;
  std::size_t wire_size() const { return 8 + cmd.wire_size(); }
};

struct Phase1a {
  static constexpr const char* kName = "PAXOS_1A";
  Ballot ballot;
  /// The candidate has applied every slot up to here, so it knows them
  /// chosen: acceptors report only what they accepted above it.
  Slot applied_upto = 0;
};

struct AcceptedEntry {
  Ballot ballot;
  sim::AnyMessage cmd;
};

struct Phase1b {
  static constexpr const char* kName = "PAXOS_1B";
  Ballot ballot;                          ///< the promise
  std::map<Slot, AcceptedEntry> accepted; ///< accepted above the candidate's applied prefix
  std::size_t wire_size() const { return 24 + accepted.size() * 32; }
};

struct Phase2a {
  static constexpr const char* kName = "PAXOS_2A";
  Ballot ballot;
  Slot slot = kNoSlot;
  sim::AnyMessage cmd;
  std::size_t wire_size() const { return 32 + cmd.wire_size(); }
};

struct Phase2b {
  static constexpr const char* kName = "PAXOS_2B";
  Ballot ballot;
  Slot slot = kNoSlot;
};

/// Broadcast by the leader once a slot's value is chosen.
struct CommitSlot {
  static constexpr const char* kName = "PAXOS_COMMIT";
  Ballot ballot;
  Slot slot = kNoSlot;
  sim::AnyMessage cmd;
  std::size_t wire_size() const { return 32 + cmd.wire_size(); }
};

}  // namespace ratc::paxos
