// Per-layer replays: after a traced run, the benchmark calls public
// functions of single layers on inputs taken from the run, and times them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "commit/replica.h"
#include "report.h"
#include "tcs/certifier.h"
#include "tcs/payload.h"
#include "trace.h"

namespace perfbench {

/// Log-layer costs at fixed log lengths (1k, 10k, 100k entries built from
/// the workload's payloads): ReplicaLog::slot_of, WitnessIndex::rebuild
/// then vote, Certifier::vote, ShardMap::project and SnapshotStore apply.
/// Sets commit.slot_of_ns.*, commit.vote_ns.*, tcs.certify_ns,
/// tcs.project_ns and store.snapshot_apply_ns.
void replay_log_layers(const std::vector<ratc::tcs::Payload>& payloads,
                       const ratc::tcs::Certifier& certifier, std::uint32_t num_shards,
                       Report& out);

/// Read-path costs on a replica's final state: Replica::read_watermark and
/// SnapshotStore::read_at over `objects`.  Sets store.read_watermark_ns and
/// store.snapshot_read_ns.
void replay_read_path(const std::vector<const ratc::commit::Replica*>& replicas,
                      const std::vector<ratc::ObjectId>& objects, Report& out);

/// Envelope cost over the observed message mix: build an AnyMessage, take
/// it apart with as<T>() and destroy it, weighted by how often each commit
/// message type was sent.  Sets sim.envelope_ns.
void replay_envelopes(const std::map<std::string, TypeTraffic>& mix, Report& out);

}  // namespace perfbench
