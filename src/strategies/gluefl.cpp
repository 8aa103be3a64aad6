#include "strategies/gluefl.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "agg/sparse_delta.h"
#include "ckpt/io.h"
#include "common/check.h"
#include "compress/encoding.h"
#include "compress/topk.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl {

GlueFlStrategy::GlueFlStrategy(GlueFlConfig cfg) : cfg_(cfg) {
  GLUEFL_CHECK(cfg.q > 0.0 && cfg.q <= 1.0);
  GLUEFL_CHECK(cfg.q_shr >= 0.0 && cfg.q_shr < cfg.q);
  GLUEFL_CHECK(cfg.sticky_group_size > 0);
  GLUEFL_CHECK(cfg.sticky_per_round > 0 &&
               cfg.sticky_per_round <= cfg.sticky_group_size);
}

void GlueFlStrategy::init(SimEngine& engine) {
  GLUEFL_CHECK_MSG(cfg_.sticky_per_round < engine.clients_per_round(),
                   "need C < K so non-sticky clients rotate in");
  GLUEFL_CHECK_MSG(cfg_.sticky_group_size <= engine.num_clients(),
                   "sticky group cannot exceed the population");
  Rng init_rng = engine.round_rng(0, /*purpose=*/50);
  StickyConfig scfg;
  scfg.group_size = cfg_.sticky_group_size;
  scfg.sticky_per_round = cfg_.sticky_per_round;
  scfg.oc_sticky_fraction = cfg_.oc_sticky_fraction;
  sampler_ = std::make_unique<StickySampler>(engine.num_clients(), scfg,
                                             init_rng);
  ec_ = std::make_unique<ErrorFeedback>(cfg_.error_comp, engine.dim());
  mask_ = BitMask(engine.dim());
  k_shr_target_ = static_cast<size_t>(std::lround(cfg_.q_shr * engine.dim()));
}

void GlueFlStrategy::save_state(ckpt::Writer& w) const {
  GLUEFL_CHECK_MSG(sampler_ != nullptr, "save_state needs an init()-ed "
                                        "strategy");
  sampler_->save_state(w);
  ec_->save_state(w);
  w.mask(mask_);
  w.varint(static_cast<uint64_t>(regen_count_));
}

void GlueFlStrategy::restore_state(ckpt::Reader& r) {
  GLUEFL_CHECK_MSG(sampler_ != nullptr, "restore_state needs an init()-ed "
                                        "strategy");
  sampler_->restore_state(r);
  ec_->restore_state(r);
  mask_ = r.mask(mask_.size(), "shared mask");
  regen_count_ =
      static_cast<int>(r.varint_max(ckpt::kIntCap, "regen count"));
}

void GlueFlStrategy::run_round(SimEngine& engine, int round,
                               RoundRecord& rec) {
  const size_t dim = engine.dim();
  // Regeneration rounds (§3.3): run with q_shr = 0 so the entire budget is
  // "unique", then re-seed the mask from the aggregated unique update. The
  // very first round regenerates by construction (the mask is empty).
  const bool regen =
      !mask_.any() ||
      (cfg_.regen_every > 0 && round > 0 && round % cfg_.regen_every == 0);
  if (regen) ++regen_count_;
  const double q_shr_eff = regen ? 0.0 : cfg_.q_shr;
  const size_t k_shr = regen ? 0 : mask_.count();
  const size_t k_uni = std::max<size_t>(
      1, static_cast<size_t>(std::lround((cfg_.q - q_shr_eff) * dim)));

  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  // Downlink rider: the shared mask M_t (plus BN stats).
  auto down = engine.down_bytes_fn(round, &mask_);
  // The analytic upload size doubles as the straggler-cutoff estimate in
  // encoded mode, where the engine prices the measured frames.
  const size_t up_bytes = values_only_bytes(k_shr) +
                          sparse_update_bytes(k_uni, dim) +
                          engine.stat_bytes();
  auto up = [up_bytes](int) { return up_bytes; };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);

  const int c_act = static_cast<int>(part.sticky.size());
  const int r_act = static_cast<int>(part.nonsticky.size());
  const int k_act = c_act + r_act;

  BitMask changed(dim);
  if (k_act > 0) {
    const std::vector<int> included = part.all();
    auto results = engine.local_train(included, round);

    // Inverse-propensity weights (§3.1); realized group counts keep the
    // aggregation self-normalizing when availability or over-commitment
    // perturbs the nominal C / K-C.
    const double n = engine.num_clients();
    const double s = cfg_.sticky_group_size;
    auto weight_of = [&](size_t i) {
      if (cfg_.equal_weights) return 1.0 / k_act;
      const bool is_sticky = i < static_cast<size_t>(c_act);
      const double p = engine.client_weight(included[i]);
      if (is_sticky) return s / std::max(1, c_act) * p;
      return (n - s) / std::max(1, r_act) * p;
    };

    BitMask complement = mask_;
    complement.flip();

    // Sticky clients all report on M_t, so the whole cohort shares ONE
    // index array — each per-client shared payload is values-only, exactly
    // like the wire encoding (values_only_bytes above).
    std::shared_ptr<const std::vector<uint32_t>> shared_idx;
    if (k_shr > 0) shared_idx = SparseDelta::make_support(mask_.to_indices());

    std::vector<float> agg_shr(dim, 0.0f);
    std::vector<float> agg_uni(dim, 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    std::vector<SparseDelta> shr_batch, uni_batch;
    if (k_shr > 0) shr_batch.reserve(included.size());
    uni_batch.reserve(included.size());
    double loss_sum = 0.0;
    int accepted = 0;
    for (size_t i = 0; i < included.size(); ++i) {
      const int client = included[i];
      const double nu = weight_of(i);
      std::vector<float>& delta = results[i].delta;
      std::vector<float> shr_vals;
      SparseVec uni;
      {
        telemetry::Span span("compress");
        // Eq. (7): re-scaled error compensation before masking.
        ec_->apply(client, nu, delta.data());

        // Shared component: Delta restricted to M_t (positions implicit).
        if (k_shr > 0) {
          shr_vals.reserve(shared_idx->size());
          for (const uint32_t j : *shared_idx) shr_vals.push_back(delta[j]);
        }
        // Unique component: top_{q - q_shr} of the complement.
        uni = regen ? top_k_abs(delta.data(), dim, k_uni)
                    : top_k_abs_masked(delta.data(), dim, k_uni, complement);

        // Residual h_i = Delta_i - (shared + unique parts actually sent).
        if (k_shr > 0) {
          mask_.for_each_set([&delta](size_t j) { delta[j] = 0.0f; });
        }
        for (uint32_t idx : uni.idx) delta[idx] = 0.0f;
        ec_->store(client, nu, delta.data());
      }

      // Client-side state (error feedback, residuals) above runs for every
      // included client; a Byzantine one still trained and still holds its
      // residual — only the upload it transmits is corrupt.
      Upload u;
      if (k_shr > 0) {
        u.shared = SparseDelta::on_shared(shared_idx, std::move(shr_vals),
                                          static_cast<float>(nu));
      }
      u.update =
          SparseDelta::from_sparse(std::move(uni), static_cast<float>(nu));
      u.stats = std::move(results[i].stat_delta);
      if (!engine.uplink(round, client, u)) continue;
      if (u.shared) shr_batch.push_back(std::move(*u.shared));
      uni_batch.push_back(std::move(*u.update));
      axpy(static_cast<float>(1.0 / k_act), u.stats.data(), stat_agg.data(),
           engine.stat_dim());
      loss_sum += results[i].loss;
      ++accepted;
    }
    if (k_shr > 0) {
      engine.aggregator().reduce(shr_batch, agg_shr.data(), dim);
    }
    engine.aggregator().reduce(uni_batch, agg_uni.data(), dim);

    // Server: Eq. (6) keeps the top_{q - q_shr} of the aggregated unique
    // gradients; the shared aggregate is applied as-is (Eq. 5).
    SparseVec uni_final;
    {
      telemetry::Span span("compress");
      uni_final = top_k_abs(agg_uni.data(), dim, k_uni);
    }
    std::vector<float> total = std::move(agg_shr);  // support within M_t
    scatter_add(uni_final, 1.0f, total.data());

    axpy(1.0f, total.data(), engine.params().data(), dim);
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    // Mean over accepted uploads; NaN (the default) when all were rejected.
    if (accepted > 0) rec.train_loss = loss_sum / accepted;

    // Changed positions this round: M_t (when it was applied) plus the
    // server-kept unique set. Regeneration rounds run with q_shr = 0, so
    // only the unique support changes.
    if (k_shr > 0) changed = mask_;
    for (uint32_t idx : uni_final.idx) changed.set(idx);

    // Mask shift (line 26): M_{t+1} = top_{q_shr}(|Delta_shr + Delta_uni|).
    if (k_shr_target_ > 0) {
      telemetry::Span span("compress");
      const SparseVec next = top_k_abs(total.data(), dim, k_shr_target_);
      BitMask new_mask = BitMask::from_indices(dim, next.idx);
      const size_t inter = BitMask::intersection_count(new_mask, mask_);
      rec.mask_overlap = mask_.any()
                             ? static_cast<double>(inter) /
                                   static_cast<double>(new_mask.count())
                             : 0.0;
      mask_ = std::move(new_mask);
    }
  }

  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(dim);
  engine.sync().record_round_changes(round, changed);

  Rng rebalance_rng = engine.round_rng(round, /*purpose=*/1);
  sampler_->post_round(part.sticky, part.nonsticky, rebalance_rng);
}

}  // namespace gluefl
