// Telemetry subsystem (DESIGN.md §10): registry sanity, the null-sink
// disabled path, LRU counters + re-derivation-only eviction, checkpoint
// round-trip of the sim-class counters, the Chrome trace schema, the
// tracing-on/off byte-identity contract over the real CLI, eager output
// path validation, `gluefl profile`, and `gluefl list --metrics`.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "cli/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "net/client_directory.h"
#include "net/environment.h"
#include "telemetry/telemetry.h"

namespace gluefl {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = cli::run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Scoped enable/disable so tests never leak telemetry state into each
/// other (the registry is process-global).
struct TelemetryGuard {
  explicit TelemetryGuard(const telemetry::Options& opts = {}) {
    telemetry::reset();
    telemetry::configure(opts);
  }
  ~TelemetryGuard() { telemetry::reset(); }
};

// ---------------------------------------------------------------- registry

TEST(TelemetryRegistry, TableMatchesMetricIdsAndNamesAreUnique) {
  ASSERT_EQ(telemetry::num_metric_defs(),
            telemetry::kNumScalarMetrics + 1 + telemetry::kNumDigests);
  std::set<std::string> names;
  for (int i = 0; i < telemetry::num_metric_defs(); ++i) {
    const telemetry::MetricDef& d = telemetry::metric_defs()[i];
    ASSERT_NE(d.name, nullptr);
    ASSERT_NE(d.desc, nullptr);
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate name " << d.name;
  }
  // The sim prefix (checkpointed + JSON-eligible) is exactly the scalars
  // before kDirProfileHits plus the trailing histogram row and the
  // flight-recorder digest rows.
  for (int i = 0; i < telemetry::kNumSimScalars; ++i) {
    EXPECT_EQ(telemetry::metric_defs()[i].cls, telemetry::MetricClass::kSim)
        << telemetry::metric_defs()[i].name;
  }
  for (int i = telemetry::kNumScalarMetrics; i < telemetry::num_metric_defs();
       ++i) {
    EXPECT_EQ(telemetry::metric_defs()[i].cls, telemetry::MetricClass::kSim)
        << telemetry::metric_defs()[i].name;
  }
}

TEST(TelemetryRegistry, DisabledPathIsInertAndReadsZero) {
  telemetry::reset();
  EXPECT_FALSE(telemetry::enabled());
  telemetry::count(telemetry::kWireEncodeFrames, 5);
  telemetry::hist_mask_run(17);
  { telemetry::Span span("noop"); }
  telemetry::round_boundary(0, 1.0, 2.0, 3.0, 4.0);
  telemetry::finalize();
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeFrames), 0u);
  EXPECT_EQ(telemetry::sim_values(),
            std::vector<uint64_t>(telemetry::kNumSimValues, 0));
}

TEST(TelemetryRegistry, CountersAccumulateAndResetClears) {
  TelemetryGuard guard;
  EXPECT_TRUE(telemetry::enabled());
  telemetry::count(telemetry::kWireEncodeFrames);
  telemetry::count(telemetry::kWireEncodeBytes, 100);
  telemetry::hist_mask_run(1);   // bucket 0
  telemetry::hist_mask_run(9);   // bucket 3 (8..15)
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeFrames), 1u);
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeBytes), 100u);
  EXPECT_EQ(telemetry::value(telemetry::kMaskRuns), 2u);
  const std::vector<uint64_t> hist = telemetry::mask_run_hist();
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[3], 1u);

  const std::vector<uint64_t> sim = telemetry::sim_values();
  ASSERT_EQ(sim.size(), static_cast<size_t>(telemetry::kNumSimValues));
  EXPECT_EQ(sim[telemetry::kWireEncodeBytes], 100u);
  EXPECT_EQ(sim[static_cast<size_t>(telemetry::kNumSimScalars) + 3], 1u);

  telemetry::reset();
  telemetry::configure({});
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeBytes), 0u);
}

TEST(TelemetryRegistry, SetSimValuesRestoresScalarsAndHistogram) {
  TelemetryGuard guard;
  std::vector<uint64_t> vals(telemetry::kNumSimValues, 0);
  vals[telemetry::kWireEncodeFrames] = 7;
  vals[static_cast<size_t>(telemetry::kNumSimScalars)] = 11;  // hist bucket 0
  telemetry::set_sim_values(vals);
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeFrames), 7u);
  EXPECT_EQ(telemetry::mask_run_hist()[0], 11u);
  EXPECT_EQ(telemetry::sim_values(), vals);
}

// ------------------------------------------------- ClientDirectory counters

TEST(TelemetryDirectory, ProfileEvictionIsRederivationOnly) {
  TelemetryGuard guard;
  const NetworkEnv env = make_env("edge");
  const Rng profile_rng(1), avail_rng(2);
  // Capacity 4 over 64 clients: sequential sweeps thrash the LRU, so
  // every entry is evicted and re-derived many times over.
  ClientDirectory dir(64, 8, env, profile_rng, avail_rng,
                      /*use_availability=*/false, /*materialize=*/false,
                      /*cache_capacity=*/4);
  std::vector<ClientProfile> first;
  for (int64_t c = 0; c < 64; ++c) first.push_back(dir.profile(c));
  const uint64_t evictions_after_first =
      telemetry::value(telemetry::kDirProfileEvictions);
  EXPECT_GT(evictions_after_first, 0u);
  // Re-derivation-only: a second full sweep (which re-derives evicted
  // entries) must reproduce every profile bit-identically.
  for (int64_t c = 0; c < 64; ++c) {
    const ClientProfile p = dir.profile(c);
    EXPECT_EQ(p.down_mbps, first[static_cast<size_t>(c)].down_mbps) << c;
    EXPECT_EQ(p.up_mbps, first[static_cast<size_t>(c)].up_mbps) << c;
    EXPECT_EQ(p.gflops, first[static_cast<size_t>(c)].gflops) << c;
  }
  EXPECT_GT(telemetry::value(telemetry::kDirProfileEvictions),
            evictions_after_first);
  EXPECT_EQ(telemetry::value(telemetry::kDirProfileHits) +
                telemetry::value(telemetry::kDirProfileMisses),
            128u);
}

TEST(TelemetryDirectory, ChainCountersSplitHitsMissesEvictions) {
  TelemetryGuard guard;
  const NetworkEnv env = make_env("edge");  // availability < 1: chains live
  ASSERT_LT(env.availability, 1.0);
  const Rng profile_rng(1), avail_rng(2);
  ClientDirectory dir(64, 8, env, profile_rng, avail_rng,
                      /*use_availability=*/true, /*materialize=*/false,
                      /*cache_capacity=*/4);
  ClientDirectory fresh(64, 8, env, profile_rng, avail_rng,
                        /*use_availability=*/true, /*materialize=*/false,
                        /*cache_capacity=*/1024);
  std::vector<bool> first;
  for (int64_t c = 0; c < 64; ++c) first.push_back(dir.available(c, 3));
  EXPECT_GT(telemetry::value(telemetry::kDirChainMisses), 0u);
  EXPECT_GT(telemetry::value(telemetry::kDirChainEvictions), 0u);
  // Evicted chains replay from their seed: answers match an uncapped
  // directory over the same streams.
  for (int64_t c = 0; c < 64; ++c) {
    EXPECT_EQ(dir.available(c, 3), fresh.available(c, 3)) << c;
    EXPECT_EQ(dir.available(c, 3), first[static_cast<size_t>(c)]) << c;
  }
  // Forward queries on a cached chain are hits.
  (void)dir.available(63, 7);
  EXPECT_GT(telemetry::value(telemetry::kDirChainHits), 0u);
}

// ------------------------------------------------------ checkpoint format v3

TEST(TelemetryCkpt, SnapshotRoundTripsSimCounters) {
  ckpt::Snapshot snap;
  snap.meta["strategy"] = "t";
  snap.seed = 9;
  snap.dim = 2;
  snap.stat_dim = 1;
  snap.num_clients = 3;
  snap.rounds = 4;
  snap.next_round = 2;
  snap.params = {1.0f, 2.0f};
  snap.stats = {3.0f};
  snap.strategy_id = "t";
  snap.telemetry.assign(static_cast<size_t>(telemetry::kNumSimValues), 0);
  snap.telemetry[telemetry::kWireEncodeBytes] = 12345;
  snap.telemetry[static_cast<size_t>(telemetry::kNumSimScalars) + 2] = 6;

  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(snap);
  const ckpt::Snapshot back = ckpt::decode_snapshot(bytes.data(), bytes.size());
  EXPECT_EQ(back.telemetry, snap.telemetry);
}

TEST(TelemetryCkpt, ShortTelemetryVectorIsZeroPaddedOnEncode) {
  ckpt::Snapshot snap;
  snap.seed = 1;
  snap.dim = 1;
  snap.num_clients = 1;
  snap.rounds = 1;
  snap.next_round = 1;
  snap.params = {0.5f};
  snap.strategy_id = "t";
  snap.telemetry = {42};  // hand-built snapshots may carry short vectors

  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(snap);
  const ckpt::Snapshot back = ckpt::decode_snapshot(bytes.data(), bytes.size());
  ASSERT_EQ(back.telemetry.size(),
            static_cast<size_t>(telemetry::kNumSimValues));
  EXPECT_EQ(back.telemetry[0], 42u);
  for (size_t i = 1; i < back.telemetry.size(); ++i) {
    EXPECT_EQ(back.telemetry[i], 0u) << i;
  }
}

// ------------------------------------------------------------- trace schema

TEST(TelemetryTrace, ChromeTraceIsWellFormedAndCoversRoundPhases) {
  ScratchDir dir("telemetry_trace_schema");
  const std::string trace = (dir.path / "trace.json").string();
  const CliResult r =
      invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
              "0.02", "--eval-every", "1", "--trace", trace});
  ASSERT_EQ(r.code, 0) << r.err;

  const std::string text = slurp(trace);
  ASSERT_FALSE(text.empty());
  const json::Value doc = json::parse(text);  // throws on malformed output
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.arr.empty());

  std::set<std::string> wall_spans, sim_spans;
  bool wall_meta = false, sim_meta = false;
  for (const json::Value& e : events.arr) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").str;
    const double pid = e.at("pid").number;
    ASSERT_TRUE(e.find("name") != nullptr);
    if (ph == "M") {
      if (e.at("name").str == "process_name") {
        const std::string& track = e.at("args").at("name").str;
        if (pid == 1.0) wall_meta = track == "wall";
        if (pid == 2.0) sim_meta = track == "sim";
      }
      continue;
    }
    ASSERT_TRUE(e.find("ts") != nullptr);
    ASSERT_TRUE(e.at("ts").is_number());
    if (ph == "X") {
      ASSERT_TRUE(e.at("dur").is_number());
      (pid == 2.0 ? sim_spans : wall_spans).insert(e.at("name").str);
    }
  }
  EXPECT_TRUE(wall_meta);
  EXPECT_TRUE(sim_meta);
  // Wall track: every instrumented phase of a sync round shows up.
  for (const char* name :
       {"round", "sample", "local_train", "compress", "transfer_price",
        "wire.encode", "wire.decode", "aggregate", "eval"}) {
    EXPECT_TRUE(wall_spans.count(name) == 1) << "missing wall span " << name;
  }
  // Sim track: the per-round phase decomposition.
  for (const char* name : {"round", "down", "compute", "up"}) {
    EXPECT_TRUE(sim_spans.count(name) == 1) << "missing sim span " << name;
  }
}

TEST(TelemetryTrace, CheckpointSpansAppearWhenCheckpointing) {
  ScratchDir dir("telemetry_trace_ckpt");
  const std::string trace = (dir.path / "trace.json").string();
  const CliResult r =
      invoke({"run", "--strategy", "gluefl", "--rounds", "3", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str(), "--trace", trace});
  ASSERT_EQ(r.code, 0) << r.err;
  const json::Value doc = json::parse(slurp(trace));
  bool has_ckpt_save = false;
  for (const json::Value& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "ckpt.save") has_ckpt_save = true;
  }
  EXPECT_TRUE(has_ckpt_save);
}

// ------------------------------------------------- byte-identity contracts

TEST(TelemetryIdentity, TracingOnOffIsByteIdenticalAcrossThreadCounts) {
  ScratchDir dir("telemetry_identity_sync");
  std::string reference;
  for (const char* threads : {"1", "4", "8"}) {
    const std::string plain = (dir.path / ("p" + std::string(threads))).string();
    const std::string traced = (dir.path / ("t" + std::string(threads))).string();
    const std::string trace = (dir.path / "trace.json").string();
    const std::string jsonl = (dir.path / "metrics.jsonl").string();
    const CliResult off =
        invoke({"run", "--strategy", "gluefl", "--rounds", "3", "--scale",
                "0.02", "--threads", threads, "--json", plain});
    ASSERT_EQ(off.code, 0) << off.err;
    const CliResult on =
        invoke({"run", "--strategy", "gluefl", "--rounds", "3", "--scale",
                "0.02", "--threads", threads, "--json", traced, "--trace",
                trace, "--metrics", jsonl});
    ASSERT_EQ(on.code, 0) << on.err;
    // The report (stdout) and the JSON summary are byte-identical with
    // tracing/metrics on vs off at this thread count...
    EXPECT_EQ(off.out, on.out) << "threads=" << threads;
    EXPECT_EQ(slurp(plain), slurp(traced)) << "threads=" << threads;
    // ...and across thread counts (sim-class counters are thread-invariant).
    if (reference.empty()) {
      reference = slurp(plain);
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(slurp(plain), reference) << "threads=" << threads;
    }
  }
}

TEST(TelemetryIdentity, AsyncTracingOnOffIsByteIdentical) {
  ScratchDir dir("telemetry_identity_async");
  const std::string plain = (dir.path / "plain.json").string();
  const std::string traced = (dir.path / "traced.json").string();
  const std::string trace = (dir.path / "trace.json").string();
  const CliResult off = invoke({"run", "--exec", "async", "--rounds", "4",
                                "--scale", "0.02", "--json", plain});
  ASSERT_EQ(off.code, 0) << off.err;
  const CliResult on =
      invoke({"run", "--exec", "async", "--rounds", "4", "--scale", "0.02",
              "--json", traced, "--trace", trace});
  ASSERT_EQ(on.code, 0) << on.err;
  EXPECT_EQ(off.out, on.out);
  EXPECT_EQ(slurp(plain), slurp(traced));
  EXPECT_FALSE(slurp(trace).empty());
}

TEST(TelemetryIdentity, TracedResumeMatchesUninterruptedJsonByteExactly) {
  ScratchDir dir("telemetry_identity_resume");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();
  const std::string trace = (dir.path / "trace.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--json", full_json});
  ASSERT_EQ(full.code, 0) << full.err;
  // The "telemetry" block is present and carries live sim counters.
  const std::string full_text = slurp(full_json);
  EXPECT_NE(full_text.find("\"telemetry\": {\"schema\": "
                           "\"gluefl.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(full_text.find("\"wire.encode.frames\": "), std::string::npos);

  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str(), "--crash-at-round", "3"});
  ASSERT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();

  // Resume WITH tracing + a thread override: the restored sim-class
  // counters plus the tail must reproduce the uninterrupted summary.
  const CliResult resumed = invoke({"resume", ckpt, "--threads", "4",
                                    "--json", resumed_json, "--trace", trace});
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_EQ(full_text, slurp(resumed_json));
  EXPECT_FALSE(slurp(trace).empty());
}

// ----------------------------------------------------- eager path validation

TEST(TelemetryPaths, BadOutputPathsFailEagerlyWithErrnoText) {
  for (const char* flag : {"--json", "--trace", "--metrics"}) {
    const CliResult r =
        invoke({"run", "--rounds", "1", "--scale", "0.02", flag,
                "no-such-dir/out.file"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("No such file or directory"), std::string::npos)
        << r.err;
    // Eager: the run never started (no banner, no report).
    EXPECT_EQ(r.out.find("run:"), std::string::npos) << flag;
  }
}

TEST(TelemetryPaths, ProbeDoesNotClobberAnExistingFile) {
  ScratchDir dir("telemetry_probe_keep");
  const std::string existing = (dir.path / "keep.json").string();
  std::ofstream(existing) << "precious\n";
  const CliResult r = invoke({"run", "--rounds", "1", "--scale", "0.02",
                              "--strategy", "fedavg", "--json", existing});
  ASSERT_EQ(r.code, 0) << r.err;
  // The probe appended nothing and the run then overwrote the file with
  // the real summary.
  const std::string text = slurp(existing);
  EXPECT_EQ(text.find("precious"), std::string::npos);
  EXPECT_NE(text.find("gluefl.run.v1"), std::string::npos);
}

TEST(TelemetryPaths, DryRunSkipsPathProbing) {
  const CliResult r =
      invoke({"run", "--rounds", "1", "--scale", "0.02", "--dry-run",
              "--trace", "no-such-dir/trace.json"});
  EXPECT_EQ(r.code, 0) << r.err;
}

// ------------------------------------------------------------ JSONL stream

TEST(TelemetryJsonl, OneParsableCumulativeRecordPerRound) {
  ScratchDir dir("telemetry_jsonl");
  const std::string jsonl = (dir.path / "metrics.jsonl").string();
  const CliResult r = invoke({"run", "--strategy", "gluefl", "--rounds", "3",
                              "--scale", "0.02", "--metrics", jsonl});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream f(jsonl);
  std::string line;
  int rounds = 0;
  double last_bytes = -1.0;
  while (std::getline(f, line)) {
    const json::Value rec = json::parse(line);
    EXPECT_EQ(rec.at("round").number, rounds);
    const double bytes = rec.at("counters").at("wire.encode.bytes").number;
    EXPECT_GE(bytes, last_bytes);  // cumulative, monotone
    last_bytes = bytes;
    // The peak-RSS gauge is sampled at every round boundary, so each
    // record carries a live (nonzero) high-water mark.
    EXPECT_GT(rec.at("counters").at("process.peak_rss_mb").number, 0.0);
    ASSERT_TRUE(rec.at("wire.mask.run_len").is_array());
    ASSERT_TRUE(rec.at("digests").is_object());
    ++rounds;
  }
  EXPECT_EQ(rounds, 3);
  EXPECT_GT(last_bytes, 0.0);
}

// ------------------------------------------------------------ profile diff

TEST(TelemetryProfile, DiffsTwoRunSummaries) {
  ScratchDir dir("telemetry_profile");
  const std::string a = (dir.path / "a.json").string();
  const std::string b = (dir.path / "b.json").string();
  ASSERT_EQ(invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
                    "0.02", "--json", a})
                .code,
            0);
  ASSERT_EQ(invoke({"run", "--strategy", "fedavg", "--rounds", "2", "--scale",
                    "0.02", "--json", b})
                .code,
            0);
  const CliResult r = invoke({"profile", a, b});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sim phases"), std::string::npos);
  EXPECT_NE(r.out.find("sim counters"), std::string::npos);
  EXPECT_NE(r.out.find("wire.encode.bytes"), std::string::npos);
  EXPECT_NE(r.out.find("encoded bytes: "), std::string::npos);
}

TEST(TelemetryProfile, RejectsMalformedAndMissingInputs) {
  ScratchDir dir("telemetry_profile_bad");
  const std::string bad = (dir.path / "bad.json").string();
  std::ofstream(bad) << "this is not json\n";
  const std::string no_block = (dir.path / "noblock.json").string();
  std::ofstream(no_block) << "{\"schema\": \"other\"}\n";

  CliResult r = invoke({"profile", bad, no_block});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("profile"), std::string::npos);

  r = invoke({"profile", no_block, no_block});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("telemetry"), std::string::npos);

  r = invoke({"profile", (dir.path / "absent.json").string()});
  EXPECT_EQ(r.code, 2);  // wrong arity
  EXPECT_NE(r.err.find("two JSON summaries"), std::string::npos);

  r = invoke({"profile", (dir.path / "absent.json").string(), bad});
  EXPECT_EQ(r.code, 2);  // unreadable file, errno text
  EXPECT_NE(r.err.find("No such file or directory"), std::string::npos);
}

TEST(TelemetryProfile, DryRunValidatesWithoutReadingFiles) {
  const CliResult r =
      invoke({"profile", "absent-a.json", "absent-b.json", "--dry-run"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dry-run"), std::string::npos);
}

// ------------------------------------------------------------ list --metrics

TEST(TelemetryList, MetricsFlagPrintsTheFullRegistry) {
  const CliResult r = invoke({"list", "--metrics"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (int i = 0; i < telemetry::num_metric_defs(); ++i) {
    EXPECT_NE(r.out.find(telemetry::metric_defs()[i].name), std::string::npos)
        << telemetry::metric_defs()[i].name;
  }
  for (const char* cls : {"sim", "process", "wall"}) {
    EXPECT_NE(r.out.find(cls), std::string::npos) << cls;
  }
  // The regular listings are replaced, not appended.
  EXPECT_EQ(r.out.find("strategies:"), std::string::npos);
}

}  // namespace
}  // namespace gluefl
