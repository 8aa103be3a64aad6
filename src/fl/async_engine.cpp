#include "fl/async_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/check.h"
#include "compress/encoding.h"
#include "fl/uplink.h"
#include "net/bandwidth.h"
#include "sampling/sampler.h"
#include "scenario/scenario.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"

namespace gluefl {

namespace {
// Purposes for the engine's async RNG streams.
constexpr uint64_t kPurposeSampling = 0x01;

// Heap ordering: std::push_heap/pop_heap with this comparator keep the
// EARLIEST (finish, seq) event at the front. The comparator ranks "later"
// events as smaller, matching the old priority_queue behaviour exactly.
bool later(const AsyncInFlight& a, const AsyncInFlight& b) {
  if (a.finish != b.finish) return a.finish > b.finish;
  return a.seq > b.seq;  // deterministic tie-break
}

void save_local(ckpt::Writer& w, const LocalResult& lr) {
  w.f32s(lr.delta.data(), lr.delta.size());
  w.f32s(lr.stat_delta.data(), lr.stat_delta.size());
  w.f32(lr.loss);
  w.varint(static_cast<uint64_t>(lr.n_samples));
}

LocalResult load_local(ckpt::Reader& r, size_t dim, size_t stat_dim) {
  LocalResult lr;
  lr.delta = r.f32s();
  lr.stat_delta = r.f32s();
  lr.loss = r.f32();
  lr.n_samples = static_cast<int>(r.varint_max(ckpt::kIntCap, "sample count"));
  // Encoded-mode dispatches move the payload into the wire frame and leave
  // the vectors empty; otherwise they are full-size.
  if ((lr.delta.size() != dim && !lr.delta.empty()) ||
      (lr.stat_delta.size() != stat_dim && !lr.stat_delta.empty())) {
    throw ckpt::CkptError("checkpoint in-flight update has the wrong dim");
  }
  return lr;
}
}  // namespace

void AsyncRunState::save_state(ckpt::Writer& w) const {
  w.varint(static_cast<uint64_t>(version));
  w.f64(now);
  w.f64(last_agg);
  w.u64(seq);
  w.varint(static_cast<uint64_t>(free_slots));
  // in_flight is not serialized: it is exactly the set of event clients,
  // and restore_state rebuilds it from the event list below.
  w.varint(events.size());
  for (const AsyncInFlight& f : events) {
    w.f64(f.finish);
    w.u64(f.seq);
    w.varint(static_cast<uint64_t>(f.client));
    w.varint(static_cast<uint64_t>(f.version));
    w.f64(f.dt);
    w.f64(f.ct);
    w.f64(f.ut);
    w.varint(f.up_b);
    w.varint(f.down_b);
    save_local(w, f.local);
    w.blob(f.wire);
  }
  w.varint(buffer.size());
  for (const AsyncUpdate& u : buffer) {
    w.varint(static_cast<uint64_t>(u.client));
    w.varint(static_cast<uint64_t>(u.version));
    w.varint(static_cast<uint64_t>(u.staleness));
    save_local(w, u.result);
    w.blob(u.wire);
  }
  ckpt::write_record(w, rec);
  const Rng::State rs = pick_rng.state();
  for (const uint64_t s : rs.s) w.u64(s);
  w.u64(rs.cached_normal_bits);
  w.u8(rs.has_cached_normal ? 1 : 0);
}

void AsyncRunState::restore_state(ckpt::Reader& r, int num_clients,
                                  size_t dim, size_t stat_dim) {
  const uint64_t round_cap = ckpt::kIntCap;
  version = static_cast<int>(r.varint_max(round_cap, "version"));
  now = r.f64();
  last_agg = r.f64();
  seq = r.u64();
  free_slots = static_cast<int>(r.varint_max(round_cap, "slot count"));
  const uint64_t nevents =
      r.varint_max(static_cast<uint64_t>(num_clients), "event count");
  events.clear();
  events.reserve(nevents);
  in_flight.clear();
  for (uint64_t i = 0; i < nevents; ++i) {
    AsyncInFlight f;
    f.finish = r.f64();
    f.seq = r.u64();
    f.client = static_cast<int>(r.varint_max(
        static_cast<uint64_t>(num_clients) - 1, "client id"));
    f.version = static_cast<int>(r.varint_max(round_cap, "version"));
    f.dt = r.f64();
    f.ct = r.f64();
    f.ut = r.f64();
    f.up_b = static_cast<size_t>(r.varint());
    f.down_b = static_cast<size_t>(r.varint());
    f.local = load_local(r, dim, stat_dim);
    f.wire = r.blob();
    if (!in_flight.insert(f.client).second) {
      throw ckpt::CkptError("checkpoint async events repeat a client");
    }
    events.push_back(std::move(f));
  }
  const uint64_t nbuf =
      r.varint_max(static_cast<uint64_t>(num_clients), "buffer size");
  buffer.clear();
  buffer.reserve(nbuf);
  for (uint64_t i = 0; i < nbuf; ++i) {
    AsyncUpdate u;
    u.client = static_cast<int>(r.varint_max(
        static_cast<uint64_t>(num_clients) - 1, "client id"));
    u.version = static_cast<int>(r.varint_max(round_cap, "version"));
    u.staleness = static_cast<int>(r.varint_max(round_cap, "staleness"));
    u.result = load_local(r, dim, stat_dim);
    u.wire = r.blob();
    buffer.push_back(std::move(u));
  }
  rec = ckpt::read_record(r);
  Rng::State rs;
  for (auto& s : rs.s) s = r.u64();
  rs.cached_normal_bits = r.u64();
  rs.has_cached_normal = r.u8() != 0;
  pick_rng.set_state(rs);
}

AsyncSimEngine::AsyncSimEngine(SimEngine& engine, AsyncConfig cfg)
    : engine_(engine), cfg_(cfg) {
  GLUEFL_CHECK_MSG(cfg_.buffer_size >= 1,
                   "async buffer_size must be at least 1");
  GLUEFL_CHECK_MSG(cfg_.concurrency >= 1,
                   "async concurrency must be at least 1");
  GLUEFL_CHECK_MSG(cfg_.concurrency <= engine_.num_clients(),
                   "async concurrency exceeds the client population");
}

RunResult AsyncSimEngine::run(AsyncStrategy& strategy, RoundHook* hook) {
  engine_.reset_state();
  strategy.init(engine_);

  AsyncRunState st;
  st.buffer.reserve(static_cast<size_t>(cfg_.buffer_size));
  st.free_slots = cfg_.concurrency;
  st.pick_rng = engine_.async_rng(kPurposeSampling);
  st.rec.round = 0;

  RunResult result;
  result.strategy = strategy.name();
  return run_loop(strategy, std::move(st), std::move(result), hook);
}

RunResult AsyncSimEngine::resume(AsyncStrategy& strategy, AsyncRunState state,
                                 RunResult prefix, RoundHook* hook) {
  const RunConfig& rc = engine_.run_config();
  if (state.version < 0 || state.version > rc.rounds ||
      static_cast<int>(prefix.rounds.size()) != state.version) {
    throw ckpt::CkptError("checkpoint async version does not match the "
                          "restored history");
  }
  if (state.free_slots + static_cast<int>(state.events.size()) !=
      cfg_.concurrency) {
    throw ckpt::CkptError("checkpoint async slot accounting is inconsistent "
                          "with the configured concurrency");
  }
  // Events must be exactly one per in-flight client — a tampered snapshot
  // with a duplicated event would double-complete one client and starve
  // the other flagged one forever.
  if (state.in_flight.size() != state.events.size()) {
    throw ckpt::CkptError("checkpoint async events do not match the "
                          "in-flight client set");
  }
  std::unordered_set<int> seen;
  for (const AsyncInFlight& f : state.events) {
    if (f.client < 0 || f.client >= engine_.num_clients() ||
        state.in_flight.count(f.client) == 0 || !seen.insert(f.client).second) {
      throw ckpt::CkptError("checkpoint async events do not match the "
                            "in-flight client set");
    }
  }
  prefix.strategy = strategy.name();
  return run_loop(strategy, std::move(state), std::move(prefix), hook);
}

RunResult AsyncSimEngine::run_loop(AsyncStrategy& strategy, AsyncRunState st,
                                   RunResult result, RoundHook* hook) {
  SimEngine& eng = engine_;
  const RunConfig& rc = eng.run_config();
  result.rounds.reserve(static_cast<size_t>(rc.rounds));

  const int n = eng.num_clients();
  const double flops = eng.flops_per_client_round();
  const bool enc = eng.wire_encoded();
  const size_t up_payload = dense_bytes(eng.dim()) + eng.stat_bytes();
  // Hierarchical topology: every dispatch traverses cloud -> edge ->
  // client and back. Dispatches are unsynchronized (each ships a diff for
  // a different model version), so unlike the synchronous path there is no
  // per-edge multicast batching — the hierarchy prices the extra hop's
  // latency, and volumes stay per-dispatch.
  const HierarchicalTopology* topo = eng.topology();
  // Per-version downlink sizing (see fill_slots).
  std::function<size_t(int)> down_fn;
  int down_fn_version = -1;

  // Dispatches every free slot to an available, not-yet-in-flight client.
  // Invitee downloads are charged immediately (stale diff + BN stats via
  // the SyncTracker), mirroring the synchronous path's accounting.
  auto fill_slots = [&]() {
    if (st.free_slots <= 0 || st.version >= rc.rounds) return;
    std::vector<int> picked;
    if (static_cast<int64_t>(n) > kDenseScanThreshold) {
      // Virtual population: rejection-sample dispatch candidates instead
      // of scanning the whole id space per event.
      picked = sample_virtual(n, st.free_slots, st.pick_rng, [&](int c) {
        return st.in_flight.count(c) == 0 &&
               eng.client_available(c, st.version);
      });
    } else {
      std::vector<int> pool;
      for (int c = 0; c < n; ++c) {
        if (st.in_flight.count(c) == 0 &&
            eng.client_available(c, st.version)) {
          pool.push_back(c);
        }
      }
      const int take =
          std::min(st.free_slots, static_cast<int>(pool.size()));
      picked = st.pick_rng.sample_without_replacement(pool, take);
    }
    const int take = static_cast<int>(picked.size());
    if (take <= 0) return;
    auto locals = eng.local_train_seq(picked, st.version, st.seq);
    // The sizing function (and its encoded-mode staleness cache) lives for
    // a whole model version: fill_slots usually dispatches one client per
    // event, so a per-call cache would never hit.
    if (down_fn_version != st.version) {
      down_fn = eng.down_bytes_fn(st.version);
      down_fn_version = st.version;
    }
    for (size_t i = 0; i < picked.size(); ++i) {
      const int c = picked[i];
      const ClientProfile p = eng.profile(c);
      const size_t down_b = down_fn(c);
      AsyncInFlight f;
      f.seq = st.seq + i;
      f.client = c;
      f.version = st.version;
      f.down_b = down_b;
      f.local = std::move(locals[i]);
      // Training runs eagerly at dispatch, so unlike the synchronous path
      // the async engine can serialize the real payload up front and use
      // measured bytes for BOTH pricing and event timing.
      if (enc) {
        // The frame owns the payload (moved out of f.local and freed with
        // `up`); the fold decodes it back.
        Upload up;
        up.update = SparseDelta::dense(std::move(f.local.delta));
        up.stats = std::move(f.local.stat_delta);
        f.wire = encode_upload(up, eng.dim());
        f.up_b = f.wire.size();
      } else {
        f.up_b = up_payload;
      }
      // Scenario faults (DESIGN.md §11), pure functions of the dispatch
      // seq so a resumed run recomputes identical fates. A dropout crashes
      // between download and upload: the payload never exists, the upload
      // leg costs nothing, and the slot frees at the end of compute. A
      // Byzantine client ships a corrupted frame — under analytic
      // accounting a 1-byte invalid sentinel — that the server-side decode
      // rejects at fold time; its upload is priced like any other.
      const bool crashed = eng.scenario_dropout_seq(f.seq);
      if (crashed) {
        telemetry::count(telemetry::kScenarioDropouts);
        f.local = LocalResult{};
        f.wire.clear();
        f.up_b = 0;
      } else if (eng.scenario_byzantine_seq(f.seq)) {
        if (enc) {
          scenario::corrupt_frame(f.wire);
        } else {
          f.local = LocalResult{};
          f.wire.assign(1, 0xFF);
        }
      }
      f.dt = transfer_seconds(static_cast<double>(down_b) * eng.wire_scale(),
                              p.down_mbps);
      f.ct = flops / (p.gflops * 1e9);
      f.ut = transfer_seconds(
          static_cast<double>(f.up_b) * eng.wire_scale(), p.up_mbps);
      if (topo != nullptr) {
        f.dt += topo->fetch_seconds(static_cast<double>(down_b) *
                                    eng.wire_scale());
        if (!crashed) {
          f.ut += topo->uplink_seconds(static_cast<double>(f.up_b) *
                                       eng.wire_scale());
        }
      }
      f.finish = st.now + f.dt + f.ct + f.ut;
      st.rec.down_bytes += static_cast<double>(down_b) * eng.wire_scale();
      st.rec.num_invited += 1;
      eng.sync().mark_synced(c, st.version);
      st.in_flight.insert(c);
      st.events.push_back(std::move(f));
      std::push_heap(st.events.begin(), st.events.end(), later);
    }
    st.seq += static_cast<uint64_t>(take);
    st.free_slots -= take;
  };

  auto aggregate = [&]() {
    telemetry::Span round_span("round");
    double stale_sum = 0.0;
    for (auto& u : st.buffer) {
      u.staleness = st.version - u.version;
      stale_sum += u.staleness;
      telemetry::digest_add(telemetry::kDigestStaleness,
                            static_cast<uint64_t>(u.staleness));
    }
    st.rec.round = st.version;
    st.rec.num_included = static_cast<int>(st.buffer.size());
    st.rec.mean_staleness =
        st.buffer.empty()
            ? 0.0
            : stale_sum / static_cast<double>(st.buffer.size());
    strategy.aggregate(eng, st.version, st.buffer, st.rec);
    st.rec.wall_time_s = st.now - st.last_agg;
    st.last_agg = st.now;
    if (st.version % rc.eval_every == 0 || st.version + 1 == rc.rounds) {
      st.rec.test_acc = eng.evaluate().accuracy;
    }
    result.rounds.push_back(st.rec);
    telemetry::round_boundary(st.rec.round, st.rec.down_time_s,
                              st.rec.compute_time_s, st.rec.up_time_s,
                              st.rec.wall_time_s);
    // Flush the recorder round BEFORE the caller's checkpoint hook (see
    // SimEngine::run_rounds): crash/resume log concatenation depends on it.
    if (events::on()) {
      events::RoundSummary summary;
      summary.round = st.rec.round;
      summary.num_invited = st.rec.num_invited;
      summary.num_included = st.rec.num_included;
      summary.down_bytes = st.rec.down_bytes;
      summary.up_bytes = st.rec.up_bytes;
      summary.down_time_s = st.rec.down_time_s;
      summary.compute_time_s = st.rec.compute_time_s;
      summary.up_time_s = st.rec.up_time_s;
      summary.wall_time_s = st.rec.wall_time_s;
      summary.mask_overlap = st.rec.mask_overlap;
      events::round_flush(summary);
    }
    st.rec = RoundRecord{};
    st.buffer.clear();
    ++st.version;
    st.rec.round = st.version;
  };

  fill_slots();
  while (st.version < rc.rounds && !st.events.empty()) {
    // Move, don't copy: AsyncInFlight carries the model-dim delta vectors,
    // and the element is dropped immediately after.
    std::pop_heap(st.events.begin(), st.events.end(), later);
    AsyncInFlight f = std::move(st.events.back());
    st.events.pop_back();
    st.now = f.finish;
    st.in_flight.erase(f.client);
    ++st.free_slots;

    // Scenario fates, recomputed from the seq (pure function — identical
    // before and after a resume). A crashed client contributes nothing
    // beyond the download already charged at dispatch; a deadline miss
    // pays its (completed) upload but the server discards the update.
    const scenario::ScenarioSpec& scen = eng.scenario();
    const bool crashed =
        scen.dropout_rate > 0.0 && eng.scenario_dropout_seq(f.seq);
    const double elapsed = f.dt + f.ct + f.ut;
    const bool late =
        !crashed && scen.deadline_s > 0.0 && elapsed > scen.deadline_s;
    st.rec.down_time_s = std::max(st.rec.down_time_s, f.dt);
    st.rec.compute_time_s = std::max(st.rec.compute_time_s, f.ct);
    if (!crashed) {
      st.rec.up_bytes += static_cast<double>(f.up_b) * eng.wire_scale();
      st.rec.up_time_s = std::max(st.rec.up_time_s, f.ut);
    }
    if (late) {
      telemetry::count(telemetry::kScenarioDeadlineDrops);
      telemetry::count(
          telemetry::kScenarioStragglerMs,
          static_cast<uint64_t>((elapsed - scen.deadline_s) * 1e3));
    }
    // Flight recorder + digests: the fold is where the fate is known, so
    // the full record is emitted here (no back-fill as on the sync path).
    // Fate precedence crashed > late > byzantine mirrors the server: a
    // crashed upload never arrives and a late one is discarded undecoded,
    // so only survivors reach the wire validation that rejects Byzantine
    // frames (async_fedbuff does that at aggregation).
    telemetry::digest_add(telemetry::kDigestDownBytes, f.down_b);
    if (!crashed) {
      telemetry::digest_add(telemetry::kDigestUpBytes, f.up_b);
      telemetry::digest_add(telemetry::kDigestRttMs,
                            static_cast<uint64_t>(elapsed * 1e3));
    }
    if (events::on()) {
      events::ClientEvent e;
      e.round = st.version;
      e.client = f.client;
      if (crashed) {
        e.fate = events::Fate::kDropout;
      } else if (late) {
        e.fate = events::Fate::kDeadlineDrop;
      } else if (scen.byzantine_rate > 0.0 &&
                 eng.scenario_byzantine_seq(f.seq)) {
        e.fate = events::Fate::kByzantine;
      } else {
        e.fate = events::Fate::kCompleted;
      }
      e.sticky = false;  // no sticky cohort on the async path
      e.device_class = eng.directory().device_class(f.client);
      e.down_bytes = f.down_b;
      e.up_bytes = f.up_b;
      e.down_s = f.dt;
      e.compute_s = f.ct;
      e.up_s = f.ut;
      // Version gap at the fold == the staleness the strategy will weight
      // by: the buffer is cleared at every aggregation, so st.version
      // cannot advance between this fold and the aggregation it feeds.
      e.staleness = st.version - f.version;
      events::client(e);
    }
    if (!crashed && !late) {
      AsyncUpdate u;
      u.client = f.client;
      u.version = f.version;
      u.result = std::move(f.local);
      u.wire = std::move(f.wire);
      st.buffer.push_back(std::move(u));
    }

    if (static_cast<int>(st.buffer.size()) >= cfg_.buffer_size) {
      aggregate();
      // st.version - 1 just completed; the state is exactly an
      // aggregation boundary (buffer empty, record pushed) — the only
      // instant an async snapshot is taken.
      if (hook != nullptr) {
        hook->on_round_end(eng, st.version - 1, result, &st);
      }
    }
    fill_slots();
  }
  // The pool drained (availability churn) before the planned horizon:
  // flush whatever is buffered so the partial run still aggregates. The
  // flush is a boundary like any other — the hook must see it, or a
  // checkpoint/crash due exactly there would silently not fire.
  if (st.version < rc.rounds && !st.buffer.empty()) {
    aggregate();
    if (hook != nullptr) {
      hook->on_round_end(eng, st.version - 1, result, &st);
    }
  }
  return result;
}

}  // namespace gluefl
