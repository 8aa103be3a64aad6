#include "strategies/async_fedbuff.h"

#include <cmath>
#include <utility>
#include <vector>

#include "agg/sparse_delta.h"
#include "common/check.h"
#include "compress/bitmask.h"
#include "fl/uplink.h"
#include "tensor/ops.h"

namespace gluefl {

AsyncFedBuffStrategy::AsyncFedBuffStrategy(AsyncFedBuffConfig cfg)
    : cfg_(cfg) {
  GLUEFL_CHECK_MSG(cfg_.alpha >= 0.0,
                   "async-fedbuff alpha must be non-negative");
  GLUEFL_CHECK_MSG(cfg_.server_lr > 0.0,
                   "async-fedbuff server_lr must be positive");
}

double AsyncFedBuffStrategy::staleness_weight(int staleness) const {
  const int tau = staleness < 0 ? 0 : staleness;
  if (cfg_.max_staleness > 0 && tau > cfg_.max_staleness) return 0.0;
  if (cfg_.discount == StalenessDiscount::kConstant) return 1.0;
  return std::pow(1.0 + static_cast<double>(tau), -cfg_.alpha);
}

void AsyncFedBuffStrategy::aggregate(SimEngine& engine, int version,
                                     std::vector<AsyncUpdate>& buffer,
                                     RoundRecord& rec) {
  BitMask changed(engine.dim());
  // Every update goes through the server-side receive step (DESIGN.md §11)
  // BEFORE the staleness normalization: under --wire=encoded the update
  // arrived as a frame (the engine emptied result.delta at dispatch) and is
  // decoded once; under analytic accounting a Byzantine dispatch carries a
  // 1-byte sentinel frame that fails the same validation. The flight
  // recorder needs no marking here: the async engine derives the fate from
  // the dispatch seq at fold time (the same predicate that made the frame
  // corrupt), so the record already says kByzantine. A rejected update
  // comes back empty (no `update`).
  std::vector<Upload> got(buffer.size());
  double wsum = 0.0;
  size_t valid = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    AsyncUpdate& u = buffer[i];
    got[i].update = SparseDelta::dense(std::move(u.result.delta));
    got[i].stats = std::move(u.result.stat_delta);
    if (!u.wire.empty() && !receive_upload(u.wire, engine.dim(), got[i])) {
      continue;
    }
    wsum += staleness_weight(u.staleness);
    ++valid;
  }

  if (valid > 0 && wsum > 0.0) {
    std::vector<float> agg(engine.dim(), 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    double loss_sum = 0.0;
    std::vector<SparseDelta> batch;
    batch.reserve(valid);
    for (size_t i = 0; i < buffer.size(); ++i) {
      if (!got[i].update) continue;
      const AsyncUpdate& u = buffer[i];
      const double nu =
          cfg_.server_lr * staleness_weight(u.staleness) / wsum;
      got[i].update->weight = static_cast<float>(nu);
      batch.push_back(std::move(*got[i].update));
      axpy(static_cast<float>(nu), got[i].stats.data(), stat_agg.data(),
           engine.stat_dim());
      loss_sum += u.result.loss;
    }
    engine.aggregator().reduce(batch, agg.data(), engine.dim());
    axpy(1.0f, agg.data(), engine.params().data(), engine.dim());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    rec.train_loss = loss_sum / static_cast<double>(valid);
    changed.set_all();  // dense update: every position may have moved
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(engine.dim());
  engine.sync().record_round_changes(version, changed);
}

}  // namespace gluefl
