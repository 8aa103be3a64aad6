#include "fl/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "common/check.h"
#include "compress/encoding.h"
#include "net/bandwidth.h"
#include "nn/optimizer.h"
#include "scenario/scenario.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"
#include "wire/codec.h"

namespace gluefl {

namespace {
// Training cost relative to inference: forward + backward ~ 3x forward.
constexpr double kTrainFlopFactor = 3.0;

// Largest supported --population; keeps ids, stream offsets, and the
// checkpoint varints comfortably inside int range.
constexpr int64_t kMaxPopulation = 100000000;

// Stream ids for forked RNGs; keep them disjoint per purpose.
constexpr uint64_t kStreamProfiles = 0x01;
constexpr uint64_t kStreamAvailability = 0x02;
constexpr uint64_t kStreamInit = 0x03;
constexpr uint64_t kStreamScenario = 0x04;  // device-class membership
constexpr uint64_t kStreamRoundBase = 0x1000;
// Async-mode streams live far above every possible round stream
// (kStreamRoundBase + rounds * 64 stays < 2^32 for rounds <= 1e6).
constexpr uint64_t kStreamAsyncBase = uint64_t{1} << 32;
constexpr uint64_t kStreamAsyncTrainBase = uint64_t{1} << 33;
// Per-dispatch scenario fate streams for the async engine (seq-keyed, so
// resume can recompute an in-flight update's fate from serialized state).
constexpr uint64_t kStreamAsyncDropoutBase = uint64_t{1} << 34;
constexpr uint64_t kStreamAsyncByzantineBase = uint64_t{1} << 35;
// Per-round scenario purposes (round_rng purpose slots 0..63; 63 is
// local_train, 0/1/50 belong to the samplers and gluefl init).
constexpr uint64_t kPurposeScenarioByzantine = 61;
constexpr uint64_t kPurposeScenarioDropout = 62;
}  // namespace

struct SimEngine::Worker {
  FlatModel model;
  std::vector<float> params;
  std::vector<float> stats;
  std::vector<float> grads;
  std::vector<float> xbuf;
  std::vector<int> ybuf;
  std::vector<int> order;

  explicit Worker(const FlatModel& proto) : model(proto.clone()) {}
};

SimEngine::~SimEngine() = default;

std::vector<int> Participation::all() const {
  std::vector<int> out = sticky;
  out.insert(out.end(), nonsticky.begin(), nonsticky.end());
  return out;
}

SimEngine::SimEngine(FederatedDataset dataset, ModelProxy proxy,
                     NetworkEnv env, TrainConfig train_cfg, RunConfig run_cfg)
    : dataset_(std::move(dataset)),
      proxy_(std::move(proxy)),
      env_(std::move(env)),
      train_cfg_(train_cfg),
      run_cfg_(run_cfg),
      master_rng_(run_cfg.seed) {
  GLUEFL_CHECK(run_cfg_.rounds > 0);
  population_ = run_cfg_.population > 0
                    ? run_cfg_.population
                    : static_cast<int64_t>(dataset_.num_clients());
  GLUEFL_CHECK_MSG(population_ <= kMaxPopulation,
                   "population exceeds the supported maximum");
  GLUEFL_CHECK(run_cfg_.clients_per_round > 0 &&
               run_cfg_.clients_per_round <= population_);
  GLUEFL_CHECK(run_cfg_.overcommit >= 1.0);
  GLUEFL_CHECK(proxy_.model.input_dim() == dataset_.spec.feature_dim);
  GLUEFL_CHECK(proxy_.model.num_classes() == dataset_.spec.num_classes);

  dim_ = proxy_.model.param_dim();
  stat_dim_ = proxy_.model.stat_dim();
  wire_scale_ = proxy_.real_params > 0.0
                    ? proxy_.real_params / static_cast<double>(dim_)
                    : 1.0;

  directory_ = std::make_unique<ClientDirectory>(
      population_, run_cfg_.rounds, env_, master_rng_.fork(kStreamProfiles),
      master_rng_.fork(kStreamAvailability), run_cfg_.use_availability,
      /*materialize=*/run_cfg_.population_mode == PopulationMode::kDense);
  // Scenario overlay before any profile/availability query: device-class
  // multipliers and non-stationary availability are derived per entity
  // from a dedicated stream, keeping dense/virtual mode bit-identical.
  directory_->set_scenario(run_cfg_.scenario,
                           master_rng_.fork(kStreamScenario));

  num_threads_ = run_cfg_.num_threads > 0
                     ? run_cfg_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
  num_threads_ = std::min(num_threads_, 32);
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    workers_.push_back(std::make_unique<Worker>(proxy_.model));
  }

  aggregator_ = make_aggregator(run_cfg_.agg, num_threads_);
  if (run_cfg_.topology.hierarchical()) {
    topology_ = std::make_unique<HierarchicalTopology>(
        run_cfg_.topology, static_cast<int>(population_), env_.edge_down_mbps,
        env_.edge_up_mbps);
  }

  reset_state();
}

void SimEngine::reset_state() {
  Rng init_rng = master_rng_.fork(kStreamInit);
  params_ = proxy_.model.make_params(init_rng);
  stats_ = proxy_.model.make_stats();
  sync_ = std::make_unique<SyncTracker>(population_, dim_);
}

double SimEngine::client_weight(int client) const {
  GLUEFL_CHECK(client >= 0 && client < population_);
  const size_t shard =
      static_cast<size_t>(client % dataset_.num_clients());
  // ratio is exactly 1.0 when the population equals the dataset's client
  // count, so the historical weights are reproduced bit-for-bit.
  const double ratio = static_cast<double>(dataset_.num_clients()) /
                       static_cast<double>(population_);
  return dataset_.p[shard] * ratio;
}

size_t SimEngine::memory_estimate_bytes() const {
  const size_t f = sizeof(float);
  // Global model + one worker replica (each Worker clones params/stats/
  // grads). Counted thread-invariantly: the estimate rides the JSON
  // report, whose bytes must not depend on --threads (results never do).
  size_t bytes = 2 * 3 * (dim_ + stat_dim_) * f;
  // Dataset shards and the test split.
  bytes += (dataset_.test_x.size() + dataset_.test_y.size()) * f;
  for (const ClientShard& c : dataset_.clients) {
    bytes += c.x.size() * f + c.y.size() * sizeof(int);
  }
  // Per-client directory state: dense materializes the population,
  // virtual keeps only the LRU-cached cohort.
  if (run_cfg_.population_mode == PopulationMode::kDense) {
    bytes += static_cast<size_t>(population_) * sizeof(ClientProfile);
    if (!directory_->always_on()) {
      const size_t words = (static_cast<size_t>(population_) + 63) / 64;
      bytes += static_cast<size_t>(run_cfg_.rounds) * words * sizeof(uint64_t);
    }
  } else {
    bytes += ClientDirectory::kDefaultCacheCapacity * 192;
  }
  // Sync tracker occupancy is bounded by the clients ever invited.
  const double invited_per_round =
      std::ceil(run_cfg_.overcommit *
                static_cast<double>(run_cfg_.clients_per_round));
  const int64_t participants = std::min(
      population_, static_cast<int64_t>(invited_per_round) *
                       static_cast<int64_t>(run_cfg_.rounds));
  bytes += static_cast<size_t>(participants) * 48;
  return bytes;
}

size_t SimEngine::stat_bytes() const { return dense_bytes(stat_dim_); }

Rng SimEngine::round_rng(int round, uint64_t purpose) const {
  return master_rng_.fork(kStreamRoundBase +
                          static_cast<uint64_t>(round) * 64 + purpose);
}

Rng SimEngine::async_rng(uint64_t purpose) const {
  return master_rng_.fork(kStreamAsyncBase + purpose);
}

bool SimEngine::client_available(int client, int round) const {
  return directory_->available(client, round);
}

bool SimEngine::scenario_dropout(int round, int client) const {
  const double rate = run_cfg_.scenario.dropout_rate;
  if (rate <= 0.0) return false;
  Rng r = round_rng(round, kPurposeScenarioDropout)
              .fork(static_cast<uint64_t>(client));
  return r.bernoulli(rate);
}

bool SimEngine::scenario_byzantine(int round, int client) const {
  const double rate = run_cfg_.scenario.byzantine_rate;
  if (rate <= 0.0) return false;
  Rng r = round_rng(round, kPurposeScenarioByzantine)
              .fork(static_cast<uint64_t>(client));
  return r.bernoulli(rate);
}

bool SimEngine::scenario_dropout_seq(uint64_t seq) const {
  const double rate = run_cfg_.scenario.dropout_rate;
  if (rate <= 0.0) return false;
  Rng r = master_rng_.fork(kStreamAsyncDropoutBase + seq);
  return r.bernoulli(rate);
}

bool SimEngine::scenario_byzantine_seq(uint64_t seq) const {
  const double rate = run_cfg_.scenario.byzantine_rate;
  if (rate <= 0.0) return false;
  Rng r = master_rng_.fork(kStreamAsyncByzantineBase + seq);
  return r.bernoulli(rate);
}

AvailabilityFn SimEngine::availability_fn(int round) {
  if (directory_->always_on()) return AvailabilityFn{};
  return [this, round](int client) { return client_available(client, round); };
}

double SimEngine::lr_at(int round) const {
  const int decays = round / std::max(1, train_cfg_.lr_decay_every);
  return train_cfg_.lr0 * std::pow(train_cfg_.lr_decay, decays);
}

double SimEngine::flops_per_client_round() const {
  return proxy_.flops_per_sample * kTrainFlopFactor *
         static_cast<double>(train_cfg_.batch_size) *
         static_cast<double>(train_cfg_.local_steps);
}

Participation SimEngine::simulate_participation(
    int round, const CandidateSet& cand,
    const std::function<size_t(int)>& down_bytes_fn,
    const std::function<size_t(int)>& up_bytes_fn, RoundRecord& rec) {
  telemetry::Span span("transfer_price");
  struct Timed {
    int id = 0;
    double dt = 0.0, ct = 0.0, ut = 0.0, finish = 0.0;
    size_t down_b = 0;
  };
  const double flops = flops_per_client_round();
  const HierarchicalTopology* topo = topology_.get();

  // Per-invitee payload sizes, computed ONCE up front: down_bytes_fn can
  // be an O(staleness) SyncTracker union, so it must never be priced twice
  // for the same invitee.
  std::vector<size_t> sticky_down, other_down;
  sticky_down.reserve(cand.sticky.size());
  other_down.reserve(cand.nonsticky.size());
  for (const int id : cand.sticky) sticky_down.push_back(down_bytes_fn(id));
  for (const int id : cand.nonsticky) other_down.push_back(down_bytes_fn(id));

  // Hierarchical: each serving edge fetches the round's sync payload from
  // the cloud ONCE — sized for its neediest invitee — then fans it out over
  // the client access links. Compute the per-edge fetch before timing
  // clients, because every member download queues behind it.
  std::vector<size_t> edge_down_b;
  std::vector<double> edge_fetch_s;
  if (topo != nullptr) {
    edge_down_b.assign(static_cast<size_t>(topo->num_edges()), 0);
    for (size_t i = 0; i < cand.sticky.size(); ++i) {
      size_t& b =
          edge_down_b[static_cast<size_t>(topo->edge_of(cand.sticky[i]))];
      b = std::max(b, sticky_down[i]);
    }
    for (size_t i = 0; i < cand.nonsticky.size(); ++i) {
      size_t& b =
          edge_down_b[static_cast<size_t>(topo->edge_of(cand.nonsticky[i]))];
      b = std::max(b, other_down[i]);
    }
    edge_fetch_s.resize(edge_down_b.size());
    for (size_t e = 0; e < edge_down_b.size(); ++e) {
      edge_fetch_s[e] =
          topo->fetch_seconds(static_cast<double>(edge_down_b[e]) *
                              wire_scale_);
    }
  }

  auto time_client = [&](int id, size_t down_b) {
    Timed t;
    t.id = id;
    t.down_b = down_b;
    const ClientProfile p = directory_->profile(id);
    t.dt = transfer_seconds(static_cast<double>(t.down_b) * wire_scale_,
                            p.down_mbps);
    if (topo != nullptr) {
      t.dt += edge_fetch_s[static_cast<size_t>(topo->edge_of(id))];
    }
    t.ct = flops / (p.gflops * 1e9);
    t.ut = transfer_seconds(static_cast<double>(up_bytes_fn(id)) * wire_scale_,
                            p.up_mbps);
    t.finish = t.dt + t.ct + t.ut;
    return t;
  };
  auto by_finish = [](const Timed& a, const Timed& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.id < b.id;  // deterministic tie-break
  };

  std::vector<Timed> sticky_t, other_t;
  sticky_t.reserve(cand.sticky.size());
  other_t.reserve(cand.nonsticky.size());
  for (size_t i = 0; i < cand.sticky.size(); ++i) {
    sticky_t.push_back(time_client(cand.sticky[i], sticky_down[i]));
  }
  for (size_t i = 0; i < cand.nonsticky.size(); ++i) {
    other_t.push_back(time_client(cand.nonsticky[i], other_down[i]));
  }
  std::sort(sticky_t.begin(), sticky_t.end(), by_finish);
  std::sort(other_t.begin(), other_t.end(), by_finish);

  // Scenario faults (DESIGN.md §11) shrink the eligible pool BEFORE the
  // over-commit cutoff picks the fastest finishers: a crashed client never
  // reports, and one past the reporting deadline is discarded by the
  // server. Both still pay (and are charged) their download below — the
  // "dropped work priced for the bytes actually spent" contract the
  // baseline straggler model already follows. Runs on the coordinator
  // thread, so the telemetry counts stay thread-invariant.
  const scenario::ScenarioSpec& scen = run_cfg_.scenario;
  const bool scen_faults = scen.dropout_rate > 0.0 || scen.deadline_s > 0.0;
  // Flight-recorder emission (DESIGN.md §12): one buffered record per
  // recorded participation, flushed in canonical order at the round
  // boundary. Faulted invitees record their drop here; included invitees
  // record a completed participation in include() below (the upload leg
  // is back-filled by price_uplinks, and uplink() upgrades the fate of
  // rejected Byzantine frames). Over-committed invitees that survive but
  // lose the cutoff race pay their download without a record.
  auto record_client = [&](const Timed& t, bool sticky, events::Fate fate) {
    telemetry::digest_add(telemetry::kDigestDownBytes, t.down_b);
    if (!events::on()) return;
    events::ClientEvent e;
    e.round = round;
    e.client = t.id;
    e.fate = fate;
    e.sticky = sticky;
    e.device_class = directory_->device_class(t.id);
    e.down_bytes = t.down_b;
    e.up_bytes = 0;  // included clients: patched by price_uplinks
    e.down_s = t.dt;
    e.compute_s = t.ct;
    e.up_s = 0.0;
    e.staleness = sync_->staleness(t.id, round);
    events::client(e);
  };
  std::vector<Timed> sticky_ok, other_ok;
  if (scen_faults) {
    auto survives = [&](const Timed& t, bool sticky) {
      if (scenario_dropout(round, t.id)) {
        telemetry::count(telemetry::kScenarioDropouts);
        record_client(t, sticky, events::Fate::kDropout);
        return false;
      }
      if (scen.deadline_s > 0.0 && t.finish > scen.deadline_s) {
        telemetry::count(telemetry::kScenarioDeadlineDrops);
        telemetry::count(
            telemetry::kScenarioStragglerMs,
            static_cast<uint64_t>((t.finish - scen.deadline_s) * 1e3));
        record_client(t, sticky, events::Fate::kDeadlineDrop);
        return false;
      }
      return true;
    };
    for (const auto& t : sticky_t) {
      if (survives(t, /*sticky=*/true)) sticky_ok.push_back(t);
    }
    for (const auto& t : other_t) {
      if (survives(t, /*sticky=*/false)) other_ok.push_back(t);
    }
  }
  const std::vector<Timed>& sticky_sel = scen_faults ? sticky_ok : sticky_t;
  const std::vector<Timed>& other_sel = scen_faults ? other_ok : other_t;

  rec.num_invited += cand.total_invited();
  double stale_sum = 0.0;
  int stale_n = 0;
  if (topo != nullptr) {
    // Cloud downstream volume is per serving edge, not per client — the
    // multicast saving that makes the hierarchy a new DV regime. The
    // client fan-out legs ride edge links and are not cloud egress.
    for (const size_t b : edge_down_b) {
      rec.down_bytes += static_cast<double>(b) * wire_scale_;
    }
  } else {
    // Every invitee downloads the sync payload (even those later dropped
    // as stragglers) — why over-commitment inflates DV in Table 3b.
    for (const auto& t : sticky_t) {
      rec.down_bytes += static_cast<double>(t.down_b) * wire_scale_;
    }
    for (const auto& t : other_t) {
      rec.down_bytes += static_cast<double>(t.down_b) * wire_scale_;
    }
  }

  Participation part;
  auto include = [&](const Timed& t, std::vector<int>& group, bool sticky) {
    group.push_back(t.id);
    part.ready_s.push_back(t.dt + t.ct);
    rec.down_time_s = std::max(rec.down_time_s, t.dt);
    rec.compute_time_s = std::max(rec.compute_time_s, t.ct);
    const int st = sync_->staleness(t.id, round);
    if (st >= 0) {
      stale_sum += st;
      ++stale_n;
    }
    record_client(t, sticky, events::Fate::kCompleted);
  };
  const int take_sticky =
      std::min<int>(cand.need_sticky, static_cast<int>(sticky_sel.size()));
  for (int i = 0; i < take_sticky; ++i) {
    include(sticky_sel[static_cast<size_t>(i)], part.sticky, /*sticky=*/true);
  }
  const int take_other = std::min<int>(cand.need_nonsticky,
                                       static_cast<int>(other_sel.size()));
  for (int i = 0; i < take_other; ++i) {
    include(other_sel[static_cast<size_t>(i)], part.nonsticky,
            /*sticky=*/false);
  }

  rec.num_included += static_cast<int>(part.sticky.size() +
                                       part.nonsticky.size());
  rec.mean_staleness = stale_n > 0 ? stale_sum / stale_n : 0.0;

  // All invitees received w^{round} during their download.
  for (const auto& t : sticky_t) sync_->mark_synced(t.id, round);
  for (const auto& t : other_t) sync_->mark_synced(t.id, round);

  // Analytic accounting prices the upload leg now: the cutoff estimate IS
  // the priced size. Encoded frames are priced when the round ends.
  uplink_ = RoundUplink{};
  uplink_.round = round;
  if (wire_encoded()) {
    uplink_.part = part;
  } else {
    price_uplinks(part, up_bytes_fn, rec);
  }
  return part;
}

void SimEngine::price_uplinks(const Participation& part,
                              const std::function<size_t(int)>& up_bytes_fn,
                              RoundRecord& rec) {
  telemetry::Span span("transfer_price");
  const HierarchicalTopology* topo = topology_.get();
  const std::vector<int> included = part.all();
  GLUEFL_CHECK_MSG(included.size() == part.ready_s.size(),
                   "price_uplinks needs the Participation from "
                   "simulate_participation");

  // Per-edge upload batching state (hierarchical only): members' payloads
  // merge into one partial aggregate per edge before the cloud uplink.
  std::vector<size_t> edge_up_sum;
  std::vector<double> edge_finish;
  if (topo != nullptr) {
    edge_up_sum.assign(static_cast<size_t>(topo->num_edges()), 0);
    edge_finish.assign(static_cast<size_t>(topo->num_edges()), 0.0);
  }

  for (size_t i = 0; i < included.size(); ++i) {
    const int id = included[i];
    const size_t up_b = up_bytes_fn(id);
    const ClientProfile p = directory_->profile(id);
    const double ut = transfer_seconds(
        static_cast<double>(up_b) * wire_scale_, p.up_mbps);
    const double finish = part.ready_s[i] + ut;
    // Upload pricing is the one place the final frame size exists in both
    // wire modes: back-fill the recorder and feed the per-client digests
    // (finish == down + compute + up, the client's round-trip).
    telemetry::digest_add(telemetry::kDigestUpBytes, up_b);
    telemetry::digest_add(telemetry::kDigestRttMs,
                          static_cast<uint64_t>(finish * 1e3));
    events::set_uplink(id, up_b, ut);
    rec.up_time_s = std::max(rec.up_time_s, ut);
    if (topo != nullptr) {
      const size_t e = static_cast<size_t>(topo->edge_of(id));
      edge_up_sum[e] += up_b;
      edge_finish[e] = std::max(edge_finish[e], finish);
    } else {
      rec.up_bytes += static_cast<double>(up_b) * wire_scale_;
      rec.wall_time_s = std::max(rec.wall_time_s, finish);
    }
  }

  if (topo != nullptr) {
    // Edge -> cloud: each serving edge uplinks one partial aggregate as
    // soon as its slowest included member lands. The round completes when
    // the last edge's uplink does.
    const size_t dense_cap = dense_bytes(dim_) + stat_bytes();
    for (size_t e = 0; e < edge_up_sum.size(); ++e) {
      // Members' download + compute + (possibly zero-cost) upload always
      // bound the round, even when the edge has nothing to uplink — the
      // encoded APF path legitimately prices zero-byte uploads.
      rec.wall_time_s = std::max(rec.wall_time_s, edge_finish[e]);
      if (edge_up_sum[e] == 0) continue;
      const size_t up_b = HierarchicalTopology::partial_aggregate_bytes(
          edge_up_sum[e], dense_cap);
      rec.up_bytes += static_cast<double>(up_b) * wire_scale_;
      const double uplink_s =
          topo->uplink_seconds(static_cast<double>(up_b) * wire_scale_);
      rec.up_time_s = std::max(rec.up_time_s, uplink_s);
      rec.wall_time_s = std::max(rec.wall_time_s, edge_finish[e] + uplink_s);
    }
  }
}

void SimEngine::price_round_uplinks(RoundRecord& rec) {
  if (wire_encoded() && uplink_.round >= 0) {
    const std::map<int, size_t>& sent = uplink_.up_bytes;
    price_uplinks(
        uplink_.part,
        [&sent](int c) {
          const auto it = sent.find(c);
          return it != sent.end() ? it->second : size_t{0};
        },
        rec);
  }
  uplink_ = RoundUplink{};
}

bool SimEngine::uplink(int round, int client, Upload& up) {
  GLUEFL_CHECK_MSG(round == uplink_.round,
                   "uplink() needs this round's simulate_participation");
  const bool bad = scenario_byzantine(round, client);
  bool ok = !bad;
  if (wire_encoded()) {
    if (up.shared && up.shared->idx != uplink_.support) {
      uplink_.support = up.shared->idx;
      uplink_.support_id = wire::support_id(*uplink_.support);
    }
    std::vector<uint8_t> frame = encode_upload(up, dim_, uplink_.support_id);
    uplink_.up_bytes[client] = frame.size();
    // The frame owns the payload now: release the client's copy before
    // decoding, so encoded mode keeps analytic mode's footprint.
    if (up.shared) up.shared->val = std::vector<float>();
    if (up.update) up.update->val = std::vector<float>();
    up.stats = std::vector<float>();
    if (bad) scenario::corrupt_frame(frame);
    ok = receive_upload(frame, dim_, up, &uplink_.support_id);
  } else if (bad) {
    // Analytic accounting has no frame to corrupt: model the server-side
    // rejection of the Byzantine payload directly.
    telemetry::count(telemetry::kScenarioFramesRejected);
    up = Upload{};
  }
  if (!ok) events::mark_byzantine(client);
  return ok;
}

std::function<size_t(int)> SimEngine::down_bytes_fn(int round,
                                                    const BitMask* mask) {
  if (!wire_encoded()) {
    const size_t extra_bytes =
        (mask != nullptr ? mask->wire_bytes() : 0) + stat_bytes();
    return [this, round, extra_bytes](int c) {
      return sync_->sync_bytes(c, round) + extra_bytes;
    };
  }
  const size_t extra_bytes =
      (mask != nullptr ? wire::encoded_mask_bytes(*mask) : 0) +
      wire::encoded_stats_bytes(stat_dim_);
  // Measured mode: one real mask-codec run per distinct staleness — every
  // client that last synced at the same round downloads the same frame.
  auto cache = std::make_shared<std::map<int, size_t>>();
  return [this, round, extra_bytes, cache](int c) {
    const int ls = sync_->last_synced_round(c);
    const auto it = cache->find(ls);
    const size_t sync_b =
        it != cache->end()
            ? it->second
            : (*cache)[ls] =
                  wire::encoded_sync_bytes(sync_->stale_mask(c, round));
    return sync_b + extra_bytes;
  };
}

void SimEngine::train_one(Worker& w, int client, double lr, Rng rng,
                          LocalResult& out) {
  // Virtual ids beyond the dataset's client count reuse shards modulo the
  // shard count; at the default population this is the identity map.
  const ClientShard& shard =
      dataset_.clients[static_cast<size_t>(client % dataset_.num_clients())];
  GLUEFL_CHECK(shard.n > 0);
  const int feat = dataset_.spec.feature_dim;
  const int bs = std::min(train_cfg_.batch_size, shard.n);

  w.params = params_;
  w.stats = stats_;
  w.grads.resize(dim_);
  w.xbuf.resize(static_cast<size_t>(bs) * feat);
  w.ybuf.resize(static_cast<size_t>(bs));

  w.order.resize(static_cast<size_t>(shard.n));
  for (int i = 0; i < shard.n; ++i) w.order[static_cast<size_t>(i)] = i;
  rng.shuffle(w.order);

  SgdMomentum opt(dim_, train_cfg_.momentum);
  int cursor = 0;
  double loss_sum = 0.0;
  for (int e = 0; e < train_cfg_.local_steps; ++e) {
    for (int b = 0; b < bs; ++b) {
      if (cursor == shard.n) {
        cursor = 0;
        rng.shuffle(w.order);
      }
      const int s = w.order[static_cast<size_t>(cursor++)];
      std::copy_n(shard.x.data() + static_cast<size_t>(s) * feat, feat,
                  w.xbuf.data() + static_cast<size_t>(b) * feat);
      w.ybuf[static_cast<size_t>(b)] = shard.y[static_cast<size_t>(s)];
    }
    const float loss = w.model.forward_backward(
        w.params.data(), w.stats.data(), w.xbuf.data(), w.ybuf.data(), bs,
        w.grads.data());
    opt.step(w.params.data(), w.grads.data(), lr);
    loss_sum += loss;
  }

  out.delta.resize(dim_);
  sub(w.params.data(), params_.data(), out.delta.data(), dim_);
  out.stat_delta.resize(stat_dim_);
  sub(w.stats.data(), stats_.data(), out.stat_delta.data(), stat_dim_);
  out.loss = static_cast<float>(loss_sum / train_cfg_.local_steps);
  out.n_samples = shard.n;
}

std::vector<LocalResult> SimEngine::train_batch(
    const std::vector<int>& clients, double lr,
    const std::function<Rng(size_t)>& rng_at) {
  telemetry::Span span("local_train");  // whole cohort, worker pool inside
  std::vector<LocalResult> results(clients.size());
  const int nthreads =
      std::min<int>(num_threads_, static_cast<int>(clients.size()));
  if (nthreads <= 1) {
    for (size_t i = 0; i < clients.size(); ++i) {
      train_one(*workers_[0], clients[i], lr, rng_at(i), results[i]);
    }
    return results;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([this, t, nthreads, lr, &rng_at, &clients,
                          &results]() {
      for (size_t i = static_cast<size_t>(t); i < clients.size();
           i += static_cast<size_t>(nthreads)) {
        train_one(*workers_[static_cast<size_t>(t)], clients[i], lr,
                  rng_at(i), results[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  return results;
}

std::vector<LocalResult> SimEngine::local_train(const std::vector<int>& clients,
                                                int round) {
  const Rng base = master_rng_.fork(kStreamRoundBase +
                                    static_cast<uint64_t>(round) * 64 + 63);
  return train_batch(clients, lr_at(round), [&base, &clients](size_t i) {
    return base.fork(static_cast<uint64_t>(clients[i]));
  });
}

std::vector<LocalResult> SimEngine::local_train_seq(
    const std::vector<int>& clients, int lr_round, uint64_t seq_base) {
  return train_batch(clients, lr_at(lr_round), [this, seq_base](size_t i) {
    return master_rng_.fork(kStreamAsyncTrainBase + seq_base + i);
  });
}

EvalResult SimEngine::evaluate() {
  telemetry::Span span("eval");
  return proxy_.model.evaluate(
      params_.data(), stats_.data(), dataset_.test_x.data(),
      dataset_.test_y.data(), static_cast<int>(dataset_.test_y.size()),
      /*batch=*/256, run_cfg_.topk_accuracy);
}

RunResult SimEngine::run(Strategy& strategy, RoundHook* hook) {
  reset_state();
  strategy.init(*this);
  RunResult result;
  result.strategy = strategy.name();
  return run_rounds(strategy, 0, std::move(result), hook);
}

RunResult SimEngine::run_from(Strategy& strategy, int next_round,
                              RunResult prefix, RoundHook* hook) {
  GLUEFL_CHECK_MSG(next_round >= 0 && next_round <= run_cfg_.rounds,
                   "resume round outside the configured horizon");
  GLUEFL_CHECK_MSG(static_cast<int>(prefix.rounds.size()) == next_round,
                   "restored history length must equal the resume round");
  prefix.strategy = strategy.name();
  return run_rounds(strategy, next_round, std::move(prefix), hook);
}

RunResult SimEngine::run_rounds(Strategy& strategy, int first_round,
                                RunResult result, RoundHook* hook) {
  result.rounds.reserve(static_cast<size_t>(run_cfg_.rounds));
  for (int t = first_round; t < run_cfg_.rounds; ++t) {
    RoundRecord rec;
    rec.round = t;
    {
      telemetry::Span round_span("round");
      strategy.run_round(*this, t, rec);
      price_round_uplinks(rec);
      if (t % run_cfg_.eval_every == 0 || t + 1 == run_cfg_.rounds) {
        rec.test_acc = evaluate().accuracy;
      }
    }
    result.rounds.push_back(rec);
    telemetry::round_boundary(t, rec.down_time_s, rec.compute_time_s,
                              rec.up_time_s, rec.wall_time_s);
    // Flush the flight-recorder round BEFORE the checkpoint hook: a
    // snapshot saved at this boundary commits the log segment including
    // this round, keeping the on-disk log checkpoint-consistent.
    if (events::on()) {
      events::RoundSummary summary;
      summary.round = t;
      summary.num_invited = rec.num_invited;
      summary.num_included = rec.num_included;
      summary.down_bytes = rec.down_bytes;
      summary.up_bytes = rec.up_bytes;
      summary.down_time_s = rec.down_time_s;
      summary.compute_time_s = rec.compute_time_s;
      summary.up_time_s = rec.up_time_s;
      summary.wall_time_s = rec.wall_time_s;
      summary.mask_overlap = rec.mask_overlap;
      events::round_flush(summary);
    }
    if (hook != nullptr) {
      hook->on_round_end(*this, t, result, /*async_state=*/nullptr);
    }
  }
  return result;
}

}  // namespace gluefl
