#include "strategies/stc.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agg/sparse_delta.h"
#include "ckpt/io.h"
#include "common/check.h"
#include "compress/encoding.h"
#include "compress/topk.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl {

StcStrategy::StcStrategy(StcConfig cfg) : cfg_(cfg) {
  GLUEFL_CHECK(cfg.q > 0.0 && cfg.q <= 1.0);
}

void StcStrategy::init(SimEngine& engine) {
  sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
  ec_ = std::make_unique<ErrorFeedback>(
      cfg_.error_feedback ? ErrorFeedback::Mode::kRaw
                          : ErrorFeedback::Mode::kNone,
      engine.dim());
  k_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(cfg_.q * engine.dim())));
}

void StcStrategy::save_state(ckpt::Writer& w) const {
  GLUEFL_CHECK_MSG(ec_ != nullptr, "save_state needs an init()-ed strategy");
  ec_->save_state(w);
}

void StcStrategy::restore_state(ckpt::Reader& r) {
  GLUEFL_CHECK_MSG(ec_ != nullptr,
                   "restore_state needs an init()-ed strategy");
  ec_->restore_state(r);
}

void StcStrategy::run_round(SimEngine& engine, int round, RoundRecord& rec) {
  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  const size_t dim = engine.dim();
  auto down = engine.down_bytes_fn(round);
  // Analytic size; doubles as the cutoff estimate when uploads are priced
  // off measured encodes.
  const size_t up_bytes = sparse_update_bytes(k_, dim) + engine.stat_bytes();
  auto up = [up_bytes](int) { return up_bytes; };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);
  const std::vector<int> included = part.all();

  BitMask changed(dim);
  if (!included.empty()) {
    auto results = engine.local_train(included, round);
    std::vector<float> agg(dim, 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    const double n = engine.num_clients();
    const double khat = static_cast<double>(included.size());
    double loss_sum = 0.0;
    int accepted = 0;
    std::vector<SparseDelta> batch;
    batch.reserve(included.size());
    for (size_t i = 0; i < included.size(); ++i) {
      const int client = included[i];
      std::vector<float>& delta = results[i].delta;
      SparseVec kept;
      {
        telemetry::Span span("compress");
        // STC memory: re-inject what previous compressions dropped.
        ec_->apply(client, 1.0, delta.data());
        kept = top_k_abs(delta.data(), dim, k_);
        // Residual: the update minus what was sent.
        for (const uint32_t idx : kept.idx) delta[idx] = 0.0f;
        ec_->store(client, 1.0, delta.data());
      }
      const double nu = n / khat * engine.client_weight(client);

      // The EC memory above updates for every included client; a Byzantine
      // one still trained — only its upload lies.
      Upload u;
      u.update = SparseDelta::from_sparse(std::move(kept),
                                          static_cast<float>(nu));
      u.stats = std::move(results[i].stat_delta);
      if (!engine.uplink(round, client, u)) continue;
      batch.push_back(std::move(*u.update));
      axpy(static_cast<float>(1.0 / khat), u.stats.data(), stat_agg.data(),
           engine.stat_dim());
      loss_sum += results[i].loss;
      ++accepted;
    }
    engine.aggregator().reduce(batch, agg.data(), dim);
    // Server-side sparsification (Algorithm 1 line 17): top-q of the
    // aggregate becomes the actual model update.
    SparseVec final_update;
    {
      telemetry::Span span("compress");
      final_update = top_k_abs(agg.data(), dim, k_);
    }
    scatter_add(final_update, 1.0f, engine.params().data());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    for (uint32_t idx : final_update.idx) changed.set(idx);
    // Mean over accepted uploads; NaN (the default) when all were rejected.
    if (accepted > 0) rec.train_loss = loss_sum / accepted;
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(dim);
  engine.sync().record_round_changes(round, changed);
}

}  // namespace gluefl
