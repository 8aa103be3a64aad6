// perfbench_harness: one GlueFL simulation run, timed layer by layer from
// outside the library.
//
//   perfbench_harness --out FILE [--trace FILE] -- RUN_FLAGS
//
// RUN_FLAGS is a subset of `gluefl run` flags (see parse_run_flags); every
// other run setting takes the CLI's default, so the run is the one
// `gluefl run RUN_FLAGS` executes — run.py checks that by comparing this
// harness's summary with the CLI's --json output.
//
// Timing uses only public entry points: make_synthetic_dataset (data
// synthesis), make_proxy + SimEngine's constructor (engine set-up),
// SimEngine::run / AsyncSimEngine::run with a RoundHook that stamps every
// round boundary and, when checkpointing, wraps and times the
// ckpt::CheckpointHook. Counters are always on, as in an untraced
// `gluefl run`; --trace FILE additionally turns on the span tracer and
// writes its Chrome trace at the end. After the run, data synthesis and
// engine construction are repeated so set-up time can be reported as a
// median of kSetups set-ups (the first is the run's own).
//
// The result is one JSON object written to --out.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "data/presets.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "scenario/scenario.h"
#include "strategies/factory.h"
#include "telemetry/telemetry.h"

namespace {

using namespace gluefl;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// The `gluefl run` flags a workload may set; everything else is the CLI
// default (model shufflenet, env edge, overcommit 1.3, eval every 5,
// encoded wire, dense aggregation, flat topology, preset population).
struct RunFlags {
  std::string strategy;
  std::string dataset = "femnist";
  std::string exec = "sync";
  std::string scenario;
  double scale = 0.25;
  int rounds = 50;
  uint64_t seed = 42;
  int threads = 0;
  int checkpoint_every = 0;
  std::string checkpoint_dir;
};

RunFlags parse_run_flags(const std::vector<std::string>& args) {
  RunFlags f;
  if (args.size() % 2 != 0) {
    throw std::runtime_error("run flags must come as --name value pairs");
  }
  for (size_t i = 0; i < args.size(); i += 2) {
    const std::string& k = args[i];
    const std::string& v = args[i + 1];
    if (k == "--strategy") {
      f.strategy = v;
    } else if (k == "--dataset") {
      f.dataset = v;
    } else if (k == "--exec") {
      f.exec = v;
    } else if (k == "--scenario") {
      f.scenario = v;
    } else if (k == "--scale") {
      f.scale = std::stod(v);
    } else if (k == "--rounds") {
      f.rounds = std::stoi(v);
    } else if (k == "--seed") {
      f.seed = std::stoull(v);
    } else if (k == "--threads") {
      f.threads = std::stoi(v);
    } else if (k == "--checkpoint-every") {
      f.checkpoint_every = std::stoi(v);
    } else if (k == "--checkpoint-dir") {
      f.checkpoint_dir = v;
    } else {
      // A flag the harness would ignore would make its run differ from
      // the CLI's; refuse it instead.
      std::string msg = "unsupported run flag: ";
      msg += k;
      throw std::runtime_error(msg);
    }
  }
  if (f.strategy.empty()) {
    f.strategy = f.exec == "async" ? "async-fedbuff" : "gluefl";
  }
  if (f.checkpoint_every > 0 && f.checkpoint_dir.empty()) {
    throw std::runtime_error("--checkpoint-every requires --checkpoint-dir");
  }
  return f;
}

SyntheticSpec spec_for(const RunFlags& f) {
  if (f.dataset == "femnist") return femnist_spec(f.scale);
  if (f.dataset == "openimage") return openimage_spec(f.scale);
  if (f.dataset == "speech") return speech_spec(f.scale);
  std::string msg = "unknown dataset: ";
  msg += f.dataset;
  throw std::runtime_error(msg);
}

const char* kModel = "shufflenet";
constexpr int kSetups = 2;

RunConfig run_config_for(const RunFlags& f, const SyntheticSpec& spec) {
  RunConfig run;
  run.rounds = f.rounds;
  run.clients_per_round = preset_clients_per_round(spec);
  run.overcommit = 1.3;
  run.eval_every = std::min(5, f.rounds);
  run.topk_accuracy = preset_topk(spec);
  run.seed = f.seed;
  run.use_availability = true;
  run.num_threads = f.threads;
  run.wire.mode = WireMode::kEncoded;
  if (!f.scenario.empty()) run.scenario = scenario::load_scenario(f.scenario);
  return run;
}

// Multiply-accumulates per sample of the proxy's weight matrices, derived
// from its shape: the MLP proxies are Linear(in,w) BN ReLU Linear(w,w) BN
// ReLU Linear(w,c), whose two BatchNorms hold 2w+1 statistics each. The
// parameter count is checked against that layout so a changed proxy fails
// here instead of skewing the achieved-GFLOP/s figure.
double weight_macs_per_sample(const ModelProxy& proxy) {
  const FlatModel& m = proxy.model;
  const double in = m.input_dim();
  const double c = m.num_classes();
  const double w = (static_cast<double>(m.stat_dim()) - 2.0) / 4.0;
  const double macs = in * w + w * w + w * c;
  if (static_cast<double>(m.param_dim()) != macs + 6.0 * w + c) {
    throw std::runtime_error(
        "proxy layout is not the two-hidden-layer BatchNorm MLP the "
        "FLOP model assumes");
  }
  return macs;
}

// The CLI's strategy construction (sticky group clamped to the
// population).
std::unique_ptr<Strategy> make_sync_strategy(const std::string& name, int k,
                                             int num_clients) {
  if (name == "gluefl") {
    GlueFlConfig cfg = calibrated_gluefl_config(k, kModel);
    cfg.sticky_group_size = std::min(cfg.sticky_group_size, num_clients);
    cfg.sticky_per_round = std::min(cfg.sticky_per_round, k);
    return std::make_unique<GlueFlStrategy>(cfg);
  }
  return make_strategy(name, k, kModel);
}

// Stamps every round boundary. A round's interval runs from the previous
// boundary's exit (or the start of run()) to this boundary's exit, so a
// checkpoint saved at the boundary belongs to the round that produced it.
class TimingHook final : public RoundHook {
 public:
  explicit TimingHook(RoundHook* inner) : inner_(inner) {}

  void start() { last_ = Clock::now(); }

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    if (async_state != nullptr) dispatched_ = async_state->seq;
    double hook_ms = 0.0;
    if (inner_ != nullptr) {
      const Clock::time_point t0 = Clock::now();
      inner_->on_round_end(engine, round, partial, async_state);
      hook_ms = ms_between(t0, Clock::now());
    }
    const Clock::time_point t = Clock::now();
    round_ms.push_back(ms_between(last_, t));
    ckpt_ms.push_back(hook_ms);
    last_ = t;
  }

  uint64_t dispatched() const { return dispatched_; }

  std::vector<double> round_ms;
  std::vector<double> ckpt_ms;

 private:
  RoundHook* inner_;
  Clock::time_point last_;
  uint64_t dispatched_ = 0;
};

// ---- JSON output ----

// The CLI's number format (precision 10, non-finite as null), so the
// summary compares equal to `gluefl run --json` field by field.
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// Round-trip-exact format for the rep-to-rep comparison.
std::string jexact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jlist(const std::vector<double>& xs) {
  std::string s = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ", ";
    s += jexact(xs[i]);
  }
  s += "]";
  return s;
}

// Mirrors the CLI's --json fields the output check compares: best
// accuracy, totals, trajectory and the telemetry counters and digests.
std::string summary_json(const RunResult& res) {
  const RunTotals t = res.totals();
  std::ostringstream os;
  os << "{\"best_accuracy\": " << jnum(res.best_accuracy())
     << ", \"totals\": {\"down_gb\": " << jnum(t.down_gb)
     << ", \"up_gb\": " << jnum(t.up_gb)
     << ", \"total_gb\": " << jnum(t.total_gb)
     << ", \"download_hours\": " << jnum(t.download_hours)
     << ", \"wall_hours\": " << jnum(t.wall_hours)
     << ", \"rounds\": " << t.rounds << "}, \"trajectory\": [";
  double cum_down = 0.0, cum_up = 0.0, cum_wall = 0.0;
  bool first = true;
  for (const RoundRecord& r : res.rounds) {
    cum_down += r.down_bytes / kBytesPerGb;
    cum_up += r.up_bytes / kBytesPerGb;
    cum_wall += r.wall_time_s / 3600.0;
    if (std::isnan(r.test_acc)) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"round\": " << r.round << ", \"accuracy\": " << jnum(r.test_acc)
       << ", \"round_down_bytes\": " << jnum(r.down_bytes)
       << ", \"round_up_bytes\": " << jnum(r.up_bytes)
       << ", \"cum_down_gb\": " << jnum(cum_down)
       << ", \"cum_up_gb\": " << jnum(cum_up)
       << ", \"cum_wall_h\": " << jnum(cum_wall) << "}";
  }
  os << "], \"counters\": " << telemetry::sim_counters_json()
     << ", \"digests\": " << telemetry::digests_json() << "}";
  return os.str();
}

std::string records_json(const RunResult& res) {
  std::string s = "[";
  for (size_t i = 0; i < res.rounds.size(); ++i) {
    const RoundRecord& r = res.rounds[i];
    if (i > 0) s += ", ";
    s += jlist({static_cast<double>(r.round), r.down_bytes, r.up_bytes,
                r.down_time_s, r.up_time_s, r.compute_time_s, r.wall_time_s,
                r.train_loss, r.test_acc, static_cast<double>(r.num_invited),
                static_cast<double>(r.num_included), r.mean_staleness,
                r.changed_frac, r.mask_overlap});
  }
  s += "]";
  return s;
}

struct SetupTimes {
  double synth_ms = 0.0;
  double init_ms = 0.0;
};

// Data synthesis, proxy + engine construction, timed.
std::unique_ptr<SimEngine> build_engine(const RunFlags& f,
                                        const SyntheticSpec& spec,
                                        SetupTimes& t, double* macs) {
  const Clock::time_point t0 = Clock::now();
  FederatedDataset dataset = make_synthetic_dataset(spec);
  const Clock::time_point t1 = Clock::now();
  ModelProxy proxy = make_proxy(kModel, spec.feature_dim, spec.num_classes);
  if (macs != nullptr) *macs = weight_macs_per_sample(proxy);
  TrainConfig train;
  train.lr0 = 0.05;
  auto engine = std::make_unique<SimEngine>(
      std::move(dataset), std::move(proxy), make_env("edge"), train,
      run_config_for(f, spec));
  t.synth_ms = ms_between(t0, t1);
  t.init_ms = ms_between(t1, Clock::now());
  return engine;
}

std::map<std::string, std::string> ckpt_meta(const RunFlags& f) {
  return {{"strategy", f.strategy}, {"exec", f.exec},
          {"dataset", f.dataset},   {"model", kModel},
          {"env", "edge"},          {"rounds", std::to_string(f.rounds)},
          {"seed", std::to_string(f.seed)},
          {"threads", std::to_string(f.threads)},
          {"wire", "encoded"}};
}

// One timed run; returns the harness's JSON result.
std::string timed_run(const RunFlags& f, const std::string& trace_path) {
  const SyntheticSpec spec = spec_for(f);
  const int k = preset_clients_per_round(spec);

  telemetry::reset();
  telemetry::configure({trace_path, ""});
  const Clock::time_point t_cfg = Clock::now();

  std::vector<SetupTimes> setup(1);
  double macs = 0.0;
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<SimEngine> engine = build_engine(f, spec, setup[0], &macs);
  const TrainConfig tc = engine->train_config();

  const bool async = f.exec == "async";
  std::unique_ptr<Strategy> sync_strategy;
  std::unique_ptr<AsyncStrategy> async_strategy;
  AsyncConfig acfg;
  const ckpt::Checkpointable* ckpt_target = nullptr;
  if (async) {
    acfg.concurrency = std::min(3 * k, spec.num_clients);
    acfg.buffer_size = std::min(k, acfg.concurrency);
    async_strategy = make_async_strategy(f.strategy, AsyncFedBuffConfig{});
    ckpt_target = async_strategy.get();
  } else {
    sync_strategy = make_sync_strategy(f.strategy, k, spec.num_clients);
    ckpt_target = sync_strategy.get();
  }
  std::unique_ptr<ckpt::CheckpointHook> ckpt_hook;
  if (f.checkpoint_every > 0) {
    ckpt_hook = std::make_unique<ckpt::CheckpointHook>(
        ckpt::CkptOptions{f.checkpoint_every, f.checkpoint_dir, 0},
        ckpt_meta(f), f.strategy, *ckpt_target);
  }
  TimingHook hook(ckpt_hook.get());

  const Clock::time_point t_run = Clock::now();
  hook.start();
  RunResult res;
  if (async) {
    AsyncSimEngine async_engine(*engine, acfg);
    res = async_engine.run(*async_strategy, &hook);
  } else {
    res = engine->run(*sync_strategy, &hook);
  }
  const Clock::time_point t_end = Clock::now();

  int included = 0;
  for (const RoundRecord& r : res.rounds) included += r.num_included;
  // Sync rounds train exactly the included clients; async training runs
  // at dispatch, so every dispatch trained, aggregated or not.
  const uint64_t trained =
      async ? hook.dispatched() : static_cast<uint64_t>(included);
  const double train_flops = 6.0 * macs * tc.batch_size * tc.local_steps *
                             static_cast<double>(trained);

  std::ostringstream os;
  os << "{\"total_ms\": " << jexact(ms_between(t_setup, t_end))
     << ", \"run_ms\": " << jexact(ms_between(t_run, t_end))
     << ", \"run_start_us\": " << jexact(us_between(t_cfg, t_run))
     << ", \"run_end_us\": " << jexact(us_between(t_cfg, t_end))
     << ", \"round_ms\": " << jlist(hook.round_ms)
     << ", \"ckpt_ms\": " << jlist(hook.ckpt_ms)
     << ", \"clients_trained\": " << trained
     << ", \"updates_included\": " << included
     << ", \"frames_rejected\": "
     << telemetry::value(telemetry::kScenarioFramesRejected)
     << ", \"train_flops\": " << jexact(train_flops)
     << ", \"wire_encode_frames\": "
     << telemetry::value(telemetry::kWireEncodeFrames)
     << ", \"wire_encode_bytes\": "
     << telemetry::value(telemetry::kWireEncodeBytes)
     << ", \"ckpt_saves\": " << telemetry::value(telemetry::kCkptSaves)
     << ", \"summary\": " << summary_json(res)
     << ", \"records\": " << records_json(res);
  telemetry::finalize();

  // Further set-ups for the set-up median, after the run's engine is gone
  // and with telemetry off, so the trace holds only the timed run.
  engine.reset();
  telemetry::reset();
  for (int i = 1; i < kSetups; ++i) {
    SetupTimes t;
    build_engine(f, spec, t, nullptr);
    setup.push_back(t);
  }
  std::vector<double> synth, init;
  for (const SetupTimes& t : setup) {
    synth.push_back(t.synth_ms);
    init.push_back(t.init_ms);
  }
  os << ", \"synth_ms\": " << jlist(synth) << ", \"init_ms\": " << jlist(init)
     << "}\n";
  return os.str();
}

int harness_main(int argc, char** argv) {
  std::string out_path, trace_path;
  std::vector<std::string> run_args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      run_args.assign(argv + i + 1, argv + argc);
      break;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--out") {
      out_path = v;
    } else if (a == "--trace") {
      trace_path = v;
    } else {
      throw std::runtime_error("unknown harness flag " + a);
    }
  }
  if (out_path.empty()) throw std::runtime_error("--out is required");
  const std::string json =
      timed_run(parse_run_flags(run_args), trace_path);
  std::ofstream out(out_path);
  out << json;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return harness_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
