// Flight recorder (DESIGN.md §12): an opt-in per-client event log behind
// `--events FILE`.
//
// Both engines emit one record per (round, client) participation — device
// class, down/up frame bytes, phase seconds, fate, staleness — plus one
// round-summary record per aggregation. Everything in a record is
// sim-class (a pure function of the simulated run), all emission happens
// on the coordinator thread, and records are flushed in a canonical order
// (client records stably sorted by client id, then the round summary), so
// the log is byte-identical across thread counts and a crash/resume run's
// concatenated logs equal the uninterrupted log.
//
// Like the metrics registry, the recorder hangs off one process-global
// pointer: every hook below is a single predicted null-check branch when
// no sink is configured (measured in bench_telemetry_overhead).
//
// On-disk format: a headerless stream of CRC-framed records
//
//   u8 type (1 = client, 2 = round summary)
//   varint payload length
//   payload bytes (ckpt::Writer primitives, see events.cpp)
//   u32 crc32(payload)
//
// Headerless is load-bearing: concatenating a crashed run's log with the
// resumed run's log must reproduce the uninterrupted byte stream. For that
// to hold, the log is checkpoint-consistent: flushed rounds buffer in
// memory and only reach the file when a checkpoint is saved (or at normal
// completion), so a crash loses exactly the rounds the resume will replay —
// the recorder and the engine state always agree on where the run stopped.
// The reader (read_log) rejects truncated or corrupt input with a one-line
// ckpt::CkptError — never undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gluefl {
namespace events {

enum class Fate : uint8_t {
  kCompleted = 0,
  kDeadlineDrop = 1,   // finished past the scenario reporting deadline
  kDropout = 2,        // crashed between download and upload
  kByzantine = 3,      // frame rejected by server-side wire validation
};

/// One (round, client) participation. `device_class` indexes the
/// scenario's device_classes, -1 when the scenario defines none. Byte
/// counts are unscaled wire-frame sizes (what the codec measured or the
/// analytic formula priced); phase seconds are the simulated transfer /
/// compute legs. `staleness` is the sync tracker's rounds-since-last-sync
/// for sync participations and the model-version gap at aggregation for
/// async ones.
struct ClientEvent {
  int round = 0;
  int64_t client = 0;
  Fate fate = Fate::kCompleted;
  bool sticky = false;
  int device_class = -1;
  uint64_t down_bytes = 0;
  uint64_t up_bytes = 0;
  double down_s = 0.0;
  double compute_s = 0.0;
  double up_s = 0.0;
  int staleness = 0;
};

/// One aggregation boundary, mirroring the RoundRecord totals (byte
/// totals here ARE wire-scaled, matching the JSON summary accounting).
struct RoundSummary {
  int round = 0;
  int num_invited = 0;
  int num_included = 0;
  double down_bytes = 0.0;
  double up_bytes = 0.0;
  double down_time_s = 0.0;
  double compute_time_s = 0.0;
  double up_time_s = 0.0;
  double wall_time_s = 0.0;
  double mask_overlap = 0.0;
};

struct EventLog {
  std::vector<ClientEvent> clients;
  std::vector<RoundSummary> rounds;
};

namespace detail {
struct Sink;
extern Sink* g_sink;  // null <=> recorder fully disabled
void client_slow(const ClientEvent& e);
void mark_byzantine_slow(int64_t client);
void set_uplink_slow(int64_t client, uint64_t up_bytes, double up_s);
void round_flush_slow(const RoundSummary& summary);
}  // namespace detail

/// True when an --events sink is attached.
inline bool on() { return detail::g_sink != nullptr; }

/// Buffers one client participation for the current round. One branch
/// when disabled.
inline void client(const ClientEvent& e) {
  if (detail::g_sink != nullptr) detail::client_slow(e);
}

/// Upgrades the pending record for `client` to Fate::kByzantine — called
/// by the sync uplink seam (SimEngine::uplink) where it rejects the
/// upload. The async engine sets the fate itself at fold time instead.
inline void mark_byzantine(int64_t client) {
  if (detail::g_sink != nullptr) detail::mark_byzantine_slow(client);
}

/// Patches the pending record for `client` with the priced upload leg —
/// under --wire=encoded the real frame size only exists after the uplink
/// seam encodes, so the end-of-round price_uplinks back-fills it.
inline void set_uplink(int64_t client, uint64_t up_bytes, double up_s) {
  if (detail::g_sink != nullptr) detail::set_uplink_slow(client, up_bytes, up_s);
}

/// Flushes the round: encodes the buffered client records (stably sorted
/// by client id) followed by the round summary into the current log
/// segment. Coordinator-thread only, called once per completed round /
/// aggregation by both engines, BEFORE the checkpoint hook runs — a
/// checkpoint saved at the same boundary must commit this round.
inline void round_flush(const RoundSummary& summary) {
  if (detail::g_sink != nullptr) detail::round_flush_slow(summary);
}

/// Commits the buffered segment (all rounds flushed since the previous
/// commit) to the file. CheckpointHook calls this right after persisting a
/// snapshot so the on-disk log never runs ahead of the newest checkpoint:
/// a crashed run's log ends exactly where the resumed run picks up.
void checkpoint_commit();

// ---- lifecycle (driven by the CLI; see run_cli) ----

/// Drops all state and disables the recorder (g_sink back to null).
void reset();

/// Opens `path` for writing and enables the recorder. Throws CheckError
/// via GLUEFL_CHECK_MSG when the file cannot be opened.
void configure(const std::string& path);

/// Commits the remaining segment and closes the sink. Safe to call when
/// disabled.
void finalize();

/// Crash path: drops the uncommitted segment and closes the sink — the
/// rounds past the last checkpoint are lost with the engine state, and the
/// resumed run's log appends exactly the missing bytes.
void abandon();

// ---- reader ----

/// Parses an event log. Throws ckpt::CkptError with a one-line message on
/// truncated input, CRC mismatches, unknown record types, or out-of-range
/// fields — exit code 1 through the CLI, never a crash.
EventLog read_log(const std::string& path);

}  // namespace events
}  // namespace gluefl
