#include "fl/uplink.h"

#include <utility>

#include "common/check.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"

namespace gluefl {

std::vector<uint8_t> encode_upload(const Upload& up, size_t dim,
                                   uint32_t shared_id) {
  wire::WireEncoder we(dim);
  if (up.shared) {
    we.add_shared(up.shared->val.data(), up.shared->val.size(), shared_id);
  }
  if (up.update) {
    if (up.update->is_dense()) {
      we.add_dense(up.update->val.data(), up.update->val.size());
    } else {
      we.add_unique(*up.update->idx, up.update->val);
    }
  }
  we.add_stats(up.stats.data(), up.stats.size());
  return we.finish();
}

bool receive_upload(const std::vector<uint8_t>& frame, size_t dim,
                    Upload& up, const uint32_t* shared_id) {
  try {
    // The constructor validates the whole frame, so a corrupt one throws
    // before any section is taken.
    wire::WireDecoder wd(frame.data(), frame.size(), dim);
    if (up.shared) {
      up.shared = wd.take_shared(std::move(up.shared->idx),
                                 up.shared->weight, shared_id);
    }
    if (up.update) {
      const float w = up.update->weight;
      up.update = up.update->is_dense() ? wd.take_dense(w)
                                        : wd.take_unique(w);
    }
    up.stats = wd.take_stats();
    return true;
  } catch (const CheckError&) {
    telemetry::count(telemetry::kScenarioFramesRejected);
    up = Upload{};
    return false;
  }
}

}  // namespace gluefl
