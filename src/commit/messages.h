// Message vocabulary of the atomic commit protocol (Fig. 1), plus the
// client-facing certification messages.
//
// A transaction's payload and metadata travel as Shared handles: the
// client's CERTIFY, each shard's PREPARE, the leader's PREPARE_ACK and the
// coordinator's ACCEPT all hold the objects built where the payload was
// submitted or projected, never a copy.  Only the replicas' logs copy them,
// each into its own LogEntry.
#pragma once

#include <vector>

#include "commit/log.h"
#include "common/shared.h"
#include "common/types.h"
#include "sim/message.h"
#include "tcs/decision.h"
#include "tcs/payload.h"

namespace ratc::commit {

/// Client -> chosen coordinator replica: certify(t, l).
struct CertifyRequest {
  static constexpr const char* kName = "CERTIFY";
  TxnId txn = 0;
  Shared<tcs::Payload> payload;
  std::size_t wire_size() const { return 16 + payload->wire_size(); }
};

namespace detail {
template <class Item>
std::size_t batch_wire_size(const std::vector<Item>& items) {
  std::size_t n = 16;  // header + count
  for (const Item& it : items) {
    if constexpr (sim::HasWireSize<Item>) {
      n += it.wire_size();
    } else {
      n += sizeof(Item);
    }
  }
  return n;
}
}  // namespace detail

/// Coordinator -> shard leader (Fig. 1 line 3 / line 73).  `has_payload` is
/// false for the retry path's ⊥ payload.
struct Prepare {
  static constexpr const char* kName = "PREPARE";
  TxnId txn = 0;
  bool has_payload = true;
  Shared<tcs::Payload> payload;  ///< l|s, the shard projection
  Shared<TxnMeta> meta;
  std::size_t wire_size() const {
    return 24 + payload->wire_size() + meta->participants.size() * 4;
  }
};

/// Leader -> coordinator (Fig. 1 lines 7, 17).
struct PrepareAck {
  static constexpr const char* kName = "PREPARE_ACK";
  Epoch epoch = kNoEpoch;
  ShardId shard = 0;
  Slot slot = kNoSlot;
  TxnId txn = 0;
  Shared<tcs::Payload> payload;  ///< the PREPARE's, forwarded
  tcs::Decision vote = tcs::Decision::kAbort;
  Shared<TxnMeta> meta;  ///< the PREPARE's, forwarded
  Time prepare_ts = 0;  ///< the leader's CSN-log stamp for this slot
  std::size_t wire_size() const {
    return 48 + payload->wire_size() + meta->participants.size() * 4;
  }
};

/// Coordinator -> followers (Fig. 1 line 20): replicates the leader's vote
/// and payload.  (The shard field is redundant with the receiver's own
/// shard; it is carried for monitoring and debugging.  The coordinator
/// field is used only by the leader-driven replication ablation, where the
/// sender is the leader but acknowledgements must go to the coordinator.)
struct Accept {
  static constexpr const char* kName = "ACCEPT";
  Epoch epoch = kNoEpoch;
  ShardId shard = 0;
  Slot slot = kNoSlot;
  TxnId txn = 0;
  Shared<tcs::Payload> payload;  ///< the PREPARE_ACK's, forwarded
  tcs::Decision vote = tcs::Decision::kAbort;
  Shared<TxnMeta> meta;  ///< the PREPARE_ACK's, forwarded
  ProcessId coordinator = kNoProcess;
  Time prepare_ts = 0;  ///< the leader's CSN-log stamp, replicated with the slot
  std::size_t wire_size() const {
    return 48 + payload->wire_size() + meta->participants.size() * 4;
  }
};

/// Follower -> coordinator (Fig. 1 line 25).
struct AcceptAck {
  static constexpr const char* kName = "ACCEPT_ACK";
  ShardId shard = 0;
  Epoch epoch = kNoEpoch;
  Slot slot = kNoSlot;
  TxnId txn = 0;
  tcs::Decision vote = tcs::Decision::kAbort;
};

// --- batched certification ---------------------------------------------------
//
// The certification function is distributive (requirement (1) of Sec. 2):
// the vote over a set of payloads is the meet of pairwise checks, so many
// payloads can ride one CERTIFY round without changing any decision.  Each
// wrapper below carries a vector of the corresponding per-transaction
// message; handlers apply the items in order, so a batch is semantically the
// simultaneous delivery of its items.  Batches of size 1 are never sent —
// the frontends fall back to the scalar messages, keeping batch_size=1 runs
// bit-identical to the pre-batching protocol.

/// Coordinator -> shard leader: one PREPARE round for a whole batch.
struct PrepareBatch {
  static constexpr const char* kName = "PREPARE_BATCH";
  std::vector<Prepare> items;
  std::size_t wire_size() const { return detail::batch_wire_size(items); }
};

/// Leader -> coordinator: the acks of one PrepareBatch.
struct PrepareAckBatch {
  static constexpr const char* kName = "PREPARE_ACK_BATCH";
  std::vector<PrepareAck> items;
  std::size_t wire_size() const { return detail::batch_wire_size(items); }
};

/// Coordinator (or leader, in the leader-driven ablation) -> follower: one
/// replication write for a whole batch.
struct AcceptBatch {
  static constexpr const char* kName = "ACCEPT_BATCH";
  std::vector<Accept> items;
  std::size_t wire_size() const { return detail::batch_wire_size(items); }
};

/// Follower -> coordinator: the acks of one AcceptBatch.
struct AcceptAckBatch {
  static constexpr const char* kName = "ACCEPT_ACK_BATCH";
  std::vector<AcceptAck> items;
  std::size_t wire_size() const { return detail::batch_wire_size(items); }
};

/// Client -> chosen coordinator replica: a whole batch of certify(t, l) in
/// one message — the remote twin of ReplicaCore::certify_batch_local, used by
/// the real-time load generator.  Size-1 batches are never sent (the
/// frontends fall back to the scalar CertifyRequest).
struct CertifyBatchRequest {
  static constexpr const char* kName = "CERTIFY_BATCH";
  std::vector<CertifyRequest> items;
  std::size_t wire_size() const { return detail::batch_wire_size(items); }
};

/// Coordinator -> shard members (Fig. 1 line 29).
struct DecisionMsg {
  static constexpr const char* kName = "DECISION";
  Epoch epoch = kNoEpoch;
  ShardId shard = 0;
  Slot slot = kNoSlot;
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
  Time csn_ts = 0;  ///< csn(t).ts for commits: max prepare stamp over shards
};

/// Coordinator -> client (Fig. 1 line 27).
struct ClientDecision {
  static constexpr const char* kName = "DECISION_CLIENT";
  TxnId txn = 0;
  tcs::Decision decision = tcs::Decision::kAbort;
  Time csn_ts = 0;  ///< csn(t).ts for commits (0 for aborts)
};

// --- reconfiguration (Fig. 1 lines 33-69) ----------------------------------

struct Probe {
  static constexpr const char* kName = "PROBE";
  Epoch epoch = kNoEpoch;  ///< recon_epoch being proposed
};

struct ProbeAck {
  static constexpr const char* kName = "PROBE_ACK";
  bool initialized = false;
  Epoch epoch = kNoEpoch;
  ShardId shard = 0;
};

struct NewConfig {
  static constexpr const char* kName = "NEW_CONFIG";
  Epoch epoch = kNoEpoch;
  std::vector<ProcessId> members;
  std::size_t wire_size() const { return 16 + members.size() * 4; }
};

/// New leader -> new followers: full state transfer (Fig. 1 line 60).
struct NewState {
  static constexpr const char* kName = "NEW_STATE";
  Epoch epoch = kNoEpoch;
  std::vector<ProcessId> members;
  ReplicaLog log;
  std::size_t wire_size() const { return 16 + members.size() * 4 + log.wire_size(); }
};

}  // namespace ratc::commit
