// The uplink seam (DESIGN.md §7): a client upload and the encode and
// receive steps every engine path sends it through.
//
// Sync strategies hand an Upload to SimEngine::uplink(), which under
// --wire=encoded encodes it, measures the frame for the round's pricing,
// corrupts it for a Byzantine client and decodes it; under analytic
// accounting it passes the deltas through and rejects Byzantine clients
// directly. The async engine encodes dispatches with encode_upload() and
// async-fedbuff decodes them with receive_upload().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "agg/sparse_delta.h"

namespace gluefl {

/// One client's upload. Frame sections follow the member order.
struct Upload {
  /// Values on the round's cohort support (GlueFL's shared mask M_t, APF's
  /// active set): `idx` aliases the index array every client of the round
  /// shares, so the frame carries values only.
  std::optional<SparseDelta> shared;
  /// Dense delta (idx == nullptr) or a per-client sparse (top-k) one.
  std::optional<SparseDelta> update;
  /// BatchNorm statistics delta; never quantized, always sent.
  std::vector<float> stats;
};

/// Serializes `up` as one wire frame: shared, update, stats. `shared_id` is
/// wire::support_id of up.shared's support (unused when absent).
std::vector<uint8_t> encode_upload(const Upload& up, size_t dim,
                                   uint32_t shared_id = 0);

/// Server-side receive. `up` names the sections the server expects — which
/// are present, dense or sparse update, the shared support — and the
/// weights to hand aggregation; on success its contents are replaced by the
/// decoded frame. A frame that fails validation is rejected whole: counts
/// telemetry::kScenarioFramesRejected, empties `up` and returns false.
/// `shared_id` (optional) is the support's precomputed wire::support_id.
bool receive_upload(const std::vector<uint8_t>& frame, size_t dim,
                    Upload& up, const uint32_t* shared_id = nullptr);

}  // namespace gluefl
