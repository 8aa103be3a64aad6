// SimEngine: the cross-device FL simulator.
//
// Owns the global model state (flat trainable params + BatchNorm stats),
// the federated dataset, the client directory (per-client profiles and
// availability, dense or virtual) and the staleness tracker. Strategies
// drive each round through the context API below; the engine provides
//
//   * deterministic, parallel client-local SGD (real training on the
//     proxy model — accuracy curves are genuine, not modelled),
//   * the participation/straggler simulation: every invitee's round time is
//     download + compute + upload from its profile; the fastest
//     `need_sticky` sticky and `need_nonsticky` non-sticky finishers are
//     aggregated, and invited-but-dropped clients still pay (and are
//     charged) their download — reproducing the over-commitment behaviour
//     of Table 3,
//   * the uplink seam (src/fl/uplink.h): every included client's upload
//     is encoded, priced, Byzantine-rejected and decoded in one call,
//   * byte/time/accuracy metrics collection.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "agg/aggregator.h"
#include "agg/topology.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "data/federated_dataset.h"
#include "fl/metrics.h"
#include "fl/run_hook.h"
#include "fl/sim_config.h"
#include "fl/strategy.h"
#include "fl/sync_tracker.h"
#include "fl/uplink.h"
#include "net/client_directory.h"
#include "net/client_profile.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "sampling/sampler.h"

namespace gluefl {

/// Result of one client's local training.
struct LocalResult {
  std::vector<float> delta;       // w_i^{t,E} - w^t (trainable)
  std::vector<float> stat_delta;  // BN statistics delta (Appendix D)
  float loss = 0.0f;
  int n_samples = 0;
};

/// Who actually participated after the straggler cutoff.
struct Participation {
  std::vector<int> sticky;     // included, from the sticky invitation list
  std::vector<int> nonsticky;  // included, from the non-sticky list
  std::vector<int> all() const;
  /// Download + compute seconds per included client, aligned with all()
  /// (sticky first). price_uplinks() adds the upload leg on top — under
  /// --wire=encoded only once the round's frames exist (see uplink()).
  std::vector<double> ready_s;
};

class SimEngine {
 public:
  SimEngine(FederatedDataset dataset, ModelProxy proxy, NetworkEnv env,
            TrainConfig train_cfg, RunConfig run_cfg);
  ~SimEngine();  // out-of-line: Worker is an incomplete type here
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  SimEngine(SimEngine&&) = default;
  SimEngine& operator=(SimEngine&&) = delete;

  /// Runs a full training: resets global state, executes run_cfg.rounds
  /// rounds of `strategy`, evaluating every eval_every rounds. `hook` (may
  /// be null) observes every round boundary — the checkpoint seam.
  RunResult run(Strategy& strategy, RoundHook* hook = nullptr);

  /// Continues a restored run: executes rounds [next_round, rounds) of
  /// `strategy` on the CURRENT engine/strategy state (no reset, no init),
  /// appending to `prefix` — the restored record history. The caller
  /// (ckpt::restore_sync_run) must have restored params/stats/sync and the
  /// strategy state to the boundary `next_round` first.
  RunResult run_from(Strategy& strategy, int next_round, RunResult prefix,
                     RoundHook* hook = nullptr);

  /// Re-initializes params/stats/sync tracker to the run-start state.
  /// run() calls this; AsyncSimEngine::run() does the same, so one engine
  /// can execute many (sync or async) runs with paired noise.
  void reset_state();

  // ---- context API used by strategies ----
  size_t dim() const { return dim_; }
  size_t stat_dim() const { return stat_dim_; }
  /// Simulated population (RunConfig::population, defaulting to the
  /// dataset's client count). Virtual ids in [0, num_clients()) map onto
  /// dataset shards modulo the shard count.
  int num_clients() const { return static_cast<int>(population_); }
  int clients_per_round() const { return run_cfg_.clients_per_round; }
  const FederatedDataset& dataset() const { return dataset_; }
  const TrainConfig& train_config() const { return train_cfg_; }
  const RunConfig& run_config() const { return run_cfg_; }
  const NetworkEnv& env() const { return env_; }
  /// Per-client system profile, by value: under --population-mode=virtual
  /// profiles are derived on demand and cache eviction would invalidate
  /// references into the directory.
  ClientProfile profile(int client) const { return directory_->profile(client); }
  const ClientDirectory& directory() const { return *directory_; }

  std::vector<float>& params() { return params_; }
  const std::vector<float>& params() const { return params_; }
  std::vector<float>& stats() { return stats_; }
  const std::vector<float>& stats() const { return stats_; }

  /// FedAvg importance weight p_i. With the population equal to the
  /// dataset's client count this is exactly n_i / total samples; larger
  /// populations spread each shard's weight over its virtual replicas so
  /// weights still sum to 1 over the population.
  double client_weight(int client) const;

  /// Deterministic, config-derived estimate of the engine's peak resident
  /// bytes (model replicas, dataset, per-client directory state, sync
  /// tracker). Identical for a run and its resume by construction, so it
  /// can ride the JSON report without breaking byte-identity.
  size_t memory_estimate_bytes() const;

  SyncTracker& sync() { return *sync_; }
  const SyncTracker& sync() const { return *sync_; }

  /// Update-reduction backend (RunConfig::agg). Strategies submit their
  /// weighted SparseDelta batches here instead of hand-rolled loops.
  const Aggregator& aggregator() const { return *aggregator_; }

  /// Hierarchical (edge -> cloud) topology, or nullptr when flat.
  const HierarchicalTopology* topology() const { return topology_.get(); }

  /// Wire bytes of the dense BatchNorm statistics payload.
  size_t stat_bytes() const;

  /// Deterministic RNG for (round, purpose).
  Rng round_rng(int round, uint64_t purpose) const;

  /// Deterministic RNG for async-execution streams; disjoint from every
  /// per-round stream used by the synchronous path.
  Rng async_rng(uint64_t purpose) const;

  bool client_available(int client, int round) const;
  AvailabilityFn availability_fn(int round);

  // ---- scenario fault injection (DESIGN.md §11) ----
  const scenario::ScenarioSpec& scenario() const { return run_cfg_.scenario; }
  /// Async dropout / Byzantine fates keyed by the dispatch sequence number,
  /// so the fate of an in-flight update can be recomputed after resume
  /// without widening the serialized event format. (The sync fates are
  /// private: simulate_participation() and uplink() apply them.)
  bool scenario_dropout_seq(uint64_t seq) const;
  bool scenario_byzantine_seq(uint64_t seq) const;

  /// Learning rate schedule (paper: decay 0.98 every 10 rounds).
  double lr_at(int round) const;

  /// Simulated FLOPs one client spends training for one round.
  double flops_per_client_round() const;

  /// Bytes-on-wire multiplier: real-model params / proxy params (1 when the
  /// proxy declares no real-model size). Applied uniformly to every payload
  /// for both transfer times and reported volumes, so the simulation moves
  /// bytes as if the full-size architecture were being shipped.
  double wire_scale() const { return wire_scale_; }

  /// Straggler / over-commitment simulation. `down_bytes_fn` /
  /// `up_bytes_fn` give per-client payload sizes; fills the byte and time
  /// fields of `rec` and marks every invitee synced at `round`.
  ///
  /// Under analytic accounting the upload leg is priced here from
  /// `up_bytes_fn`. Under --wire=encoded `up_bytes_fn` only orders the
  /// straggler cutoff (the server's scheduling estimate): the measured
  /// frames cannot exist before the included clients have trained, so the
  /// round's uplink() calls record them and the engine prices the upload
  /// leg once, when the strategy's run_round returns.
  Participation simulate_participation(
      int round, const CandidateSet& cand,
      const std::function<size_t(int)>& down_bytes_fn,
      const std::function<size_t(int)>& up_bytes_fn, RoundRecord& rec);

  /// Prices an upload leg: accumulates up_bytes / up_time_s / wall_time_s
  /// (and, under a hierarchical topology, the per-edge partial-aggregate
  /// uplinks) from `up_bytes_fn` over the included clients of `part`.
  void price_uplinks(const Participation& part,
                     const std::function<size_t(int)>& up_bytes_fn,
                     RoundRecord& rec);

  /// The uplink seam (src/fl/uplink.h): sends included client `client`'s
  /// upload for `round`, the round of the last simulate_participation. On
  /// success `up` holds what the server received, at the caller's weights.
  /// A Byzantine upload is rejected — `up` emptied, the client recorded
  /// kByzantine, false returned: it is still priced, but nothing of it may
  /// reach the aggregate.
  bool uplink(int round, int client, Upload& up);

  /// Byte-accounting mode (RunConfig::wire).
  bool wire_encoded() const {
    return run_cfg_.wire.mode == WireMode::kEncoded;
  }

  /// Per-client downlink size function for `round`: the sync diff plus the
  /// riders every download carries — BN stats and, when given, a strategy
  /// `mask` (GlueFL's M_t, APF's active set). Analytic accounting uses
  /// SyncTracker::sync_bytes and the bitmap / dense-fp32 formulas;
  /// --wire=encoded measures the sync, mask and stats frames, caching the
  /// sync frame per last-synced round (every client at the same staleness
  /// shares one server-side encode).
  std::function<size_t(int)> down_bytes_fn(int round,
                                           const BitMask* mask = nullptr);

  /// Trains `clients` locally (in parallel) from the current global model.
  /// Results are indexed like `clients`. Deterministic regardless of the
  /// thread count.
  std::vector<LocalResult> local_train(const std::vector<int>& clients,
                                       int round);

  /// Async-mode variant: trains `clients` from the current global model
  /// with per-client RNG streams keyed by the dispatch sequence numbers
  /// `seq_base + index` (unique per dispatch, so a client re-dispatched at
  /// the same model version still sees fresh batch noise). `lr_round`
  /// positions the learning-rate schedule (the aggregation version at
  /// dispatch). Deterministic regardless of the thread count.
  std::vector<LocalResult> local_train_seq(const std::vector<int>& clients,
                                           int lr_round, uint64_t seq_base);

  /// Test-set evaluation of the current global model.
  EvalResult evaluate();

 private:
  struct Worker;  // per-thread training context

  RunResult run_rounds(Strategy& strategy, int first_round, RunResult result,
                       RoundHook* hook);
  /// Sync scenario fates (DESIGN.md §11), pure functions of (seed, round,
  /// client): a crash between download and upload, a corrupted upload.
  bool scenario_dropout(int round, int client) const;
  bool scenario_byzantine(int round, int client) const;
  /// Prices the encoded upload leg the round's uplink() calls measured;
  /// a client that sent nothing (APF with every coordinate frozen) prices
  /// zero bytes. No-op under analytic accounting.
  void price_round_uplinks(RoundRecord& rec);
  void train_one(Worker& w, int client, double lr, Rng rng, LocalResult& out);
  std::vector<LocalResult> train_batch(
      const std::vector<int>& clients, double lr,
      const std::function<Rng(size_t)>& rng_at);

  FederatedDataset dataset_;
  ModelProxy proxy_;
  NetworkEnv env_;
  TrainConfig train_cfg_;
  RunConfig run_cfg_;

  size_t dim_ = 0;
  size_t stat_dim_ = 0;
  std::vector<float> params_;
  std::vector<float> stats_;

  int64_t population_ = 0;
  std::unique_ptr<ClientDirectory> directory_;
  std::unique_ptr<Aggregator> aggregator_;
  std::unique_ptr<HierarchicalTopology> topology_;
  std::unique_ptr<SyncTracker> sync_;
  Rng master_rng_;
  double wire_scale_ = 1.0;
  int num_threads_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// The current sync round's uplink state.
  struct RoundUplink {
    int round = -1;
    Participation part;              // encoded: priced at round end
    std::map<int, size_t> up_bytes;  // encoded: measured frame sizes
    // The cohort support of the round's shared sections, hashed once.
    std::shared_ptr<const std::vector<uint32_t>> support;
    uint32_t support_id = 0;
  };
  RoundUplink uplink_;
};

}  // namespace gluefl
