#include "strategies/apf.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "agg/sparse_delta.h"
#include "ckpt/io.h"
#include "common/check.h"
#include "compress/bitmask.h"
#include "compress/encoding.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl {

ApfStrategy::ApfStrategy(ApfConfig cfg) : cfg_(cfg) {
  GLUEFL_CHECK(cfg.threshold > 0.0 && cfg.threshold < 1.0);
  GLUEFL_CHECK(cfg.check_every >= 1);
  GLUEFL_CHECK(cfg.base_freeze >= 1 && cfg.max_freeze >= cfg.base_freeze);
}

void ApfStrategy::init(SimEngine& engine) {
  sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
  dim_ = engine.dim();
  acc_sum_.assign(dim_, 0.0f);
  acc_abs_.assign(dim_, 0.0f);
  frozen_until_.assign(dim_, 0);
  freeze_period_.assign(dim_, cfg_.base_freeze);
}

double ApfStrategy::frozen_fraction(int round) const {
  size_t frozen = 0;
  for (int until : frozen_until_) {
    if (until > round) ++frozen;
  }
  return dim_ == 0 ? 0.0
                   : static_cast<double>(frozen) / static_cast<double>(dim_);
}

void ApfStrategy::save_state(ckpt::Writer& w) const {
  GLUEFL_CHECK_MSG(dim_ > 0, "save_state needs an init()-ed strategy");
  w.varint(dim_);
  w.f32s(acc_sum_.data(), acc_sum_.size());
  w.f32s(acc_abs_.data(), acc_abs_.size());
  for (const int v : frozen_until_) w.varint(static_cast<uint64_t>(v));
  for (const int v : freeze_period_) w.varint(static_cast<uint64_t>(v));
}

void ApfStrategy::restore_state(ckpt::Reader& r) {
  GLUEFL_CHECK_MSG(dim_ > 0, "restore_state needs an init()-ed strategy");
  const uint64_t dim = r.varint();
  if (dim != dim_) {
    throw ckpt::CkptError("checkpoint APF state has the wrong dim");
  }
  acc_sum_ = r.f32s();
  acc_abs_ = r.f32s();
  if (acc_sum_.size() != dim_ || acc_abs_.size() != dim_) {
    throw ckpt::CkptError("checkpoint APF accumulators have the wrong dim");
  }
  const uint64_t round_cap = ckpt::kIntCap;
  for (auto& v : frozen_until_) {
    v = static_cast<int>(r.varint_max(round_cap, "freeze round"));
  }
  for (auto& v : freeze_period_) {
    v = static_cast<int>(r.varint_max(round_cap, "freeze period"));
  }
}

void ApfStrategy::run_round(SimEngine& engine, int round, RoundRecord& rec) {
  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  const size_t dim = dim_;
  BitMask active(dim);
  for (size_t j = 0; j < dim; ++j) {
    if (frozen_until_[j] <= round) active.set(j);
  }
  const size_t k_active = active.count();

  // Clients must learn the current frozen set: the active mask rides
  // every download.
  auto down = engine.down_bytes_fn(round, &active);
  // Upload carries only active coordinates; positions are implied by the
  // mask both sides hold. Analytic size; cutoff estimate in encoded mode.
  const size_t up_bytes = values_only_bytes(k_active) + engine.stat_bytes();
  auto up = [up_bytes](int) { return up_bytes; };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);
  const std::vector<int> included = part.all();

  // k_active == 0 leaves nothing to train or transmit: included clients
  // send no upload (under --wire=encoded they price zero bytes; their
  // wall-clock still covers download + compute).
  BitMask changed(dim);
  if (!included.empty() && k_active > 0) {
    auto results = engine.local_train(included, round);
    std::vector<float> agg(dim, 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    const double n = engine.num_clients();
    const double khat = static_cast<double>(included.size());
    double loss_sum = 0.0;
    int accepted = 0;
    // Every client reports on the same active (non-frozen) set: share one
    // index array across the round's whole batch.
    const auto active_idx = SparseDelta::make_support(active.to_indices());
    std::vector<SparseDelta> batch;
    batch.reserve(included.size());
    for (size_t i = 0; i < included.size(); ++i) {
      const double nu = n / khat * engine.client_weight(included[i]);
      // Only active coordinates are transmitted / aggregated.
      Upload u;
      {
        telemetry::Span span("compress");
        u.shared = SparseDelta::gather_shared(
            active_idx, results[i].delta.data(), static_cast<float>(nu));
      }
      u.stats = std::move(results[i].stat_delta);
      if (!engine.uplink(round, included[i], u)) continue;
      batch.push_back(std::move(*u.shared));
      axpy(static_cast<float>(1.0 / khat), u.stats.data(), stat_agg.data(),
           engine.stat_dim());
      loss_sum += results[i].loss;
      ++accepted;
    }
    engine.aggregator().reduce(batch, agg.data(), dim);
    float* params = engine.params().data();
    active.for_each_set([&](size_t j) {
      params[j] += agg[j];
      acc_sum_[j] += agg[j];
      acc_abs_[j] += std::fabs(agg[j]);
    });
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    changed = active;
    // Mean over accepted uploads; NaN (the default) when all were rejected.
    if (accepted > 0) rec.train_loss = loss_sum / accepted;
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(dim);
  engine.sync().record_round_changes(round, changed);

  // Periodic stability check over the window just completed.
  if (round > 0 && (round + 1) % cfg_.check_every == 0) {
    constexpr float kEps = 1e-12f;
    for (size_t j = 0; j < dim; ++j) {
      if (frozen_until_[j] > round) continue;  // still frozen: skip
      if (acc_abs_[j] <= kEps) continue;       // no signal this window
      const float ep = std::fabs(acc_sum_[j]) / (acc_abs_[j] + kEps);
      if (ep < static_cast<float>(cfg_.threshold)) {
        frozen_until_[j] = round + 1 + freeze_period_[j];
        freeze_period_[j] = std::min(freeze_period_[j] * 2, cfg_.max_freeze);
      } else {
        freeze_period_[j] = cfg_.base_freeze;
      }
      acc_sum_[j] = 0.0f;
      acc_abs_[j] = 0.0f;
    }
  }
}

}  // namespace gluefl
