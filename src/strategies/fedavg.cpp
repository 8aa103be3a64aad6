#include "strategies/fedavg.h"

#include <utility>

#include "agg/sparse_delta.h"
#include "compress/encoding.h"
#include "tensor/ops.h"

namespace gluefl {

void FedAvgStrategy::init(SimEngine& engine) {
  sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
}

void FedAvgStrategy::run_round(SimEngine& engine, int round,
                               RoundRecord& rec) {
  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  auto down = engine.down_bytes_fn(round);
  // Analytic dense size; cutoff estimate when uploads are measured.
  auto up = [&engine](int) {
    return dense_bytes(engine.dim()) + engine.stat_bytes();
  };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);
  const std::vector<int> included = part.all();

  BitMask changed(engine.dim());
  if (!included.empty()) {
    auto results = engine.local_train(included, round);
    std::vector<float> agg(engine.dim(), 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    const double n = engine.num_clients();
    const double khat = static_cast<double>(included.size());
    double loss_sum = 0.0;
    int accepted = 0;
    std::vector<SparseDelta> batch;
    batch.reserve(included.size());
    for (size_t i = 0; i < included.size(); ++i) {
      const double nu = n / khat * engine.client_weight(included[i]);
      // FedAvg ships the whole dense delta.
      Upload u;
      u.update = SparseDelta::dense(std::move(results[i].delta),
                                    static_cast<float>(nu));
      u.stats = std::move(results[i].stat_delta);
      if (!engine.uplink(round, included[i], u)) continue;
      batch.push_back(std::move(*u.update));
      axpy(static_cast<float>(1.0 / khat), u.stats.data(), stat_agg.data(),
           engine.stat_dim());
      loss_sum += results[i].loss;
      ++accepted;
    }
    engine.aggregator().reduce(batch, agg.data(), engine.dim());
    axpy(1.0f, agg.data(), engine.params().data(), engine.dim());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    // Mean over accepted uploads; NaN (the default) when all were rejected.
    if (accepted > 0) rec.train_loss = loss_sum / accepted;
    changed.set_all();  // dense update: every position may have moved
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(engine.dim());
  engine.sync().record_round_changes(round, changed);
}

}  // namespace gluefl
