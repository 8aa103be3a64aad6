// Golden behaviour pins: absolute digests of small canonical runs.
//
// Every other determinism test compares one run with another (thread
// counts, crash/resume, dense/virtual, kernels), so a change that moves
// both sides the same way passes them all. These cases pin two CRC32s per
// run instead:
//
//   model    the final trainable params followed by the BatchNorm stats
//   records  every RoundRecord field of every round, followed by the
//            scenario.frames_rejected counter
//
// A change that is meant to move numerics re-pins the affected digests in
// the same change and says why in CHANGES.md; a refactor must pass them
// unchanged. Runs are tiny (60 clients, 6 rounds, one training thread), so
// the whole matrix takes well under a second.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "scenario/scenario.h"
#include "strategies/apf.h"
#include "strategies/async_fedbuff.h"
#include "strategies/fedavg.h"
#include "strategies/gluefl.h"
#include "strategies/stc.h"
#include "telemetry/telemetry.h"
#include "tensor/gemm_kernels.h"
#include "test_util.h"

namespace gluefl {
namespace {

struct GoldenCase {
  const char* strategy;  // fedavg | stc | apf | gluefl | async-fedbuff
  WireMode wire;
  const char* scenario;  // "" = none, else a builtin scenario name
  int edges;             // 0 = flat, E = hier:E
  uint32_t model_crc;
  uint32_t records_crc;
};

std::string case_name(const GoldenCase& c) {
  std::string s = c.strategy;
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  s += c.wire == WireMode::kEncoded ? "_encoded" : "_analytic";
  s += '_';
  s += c.scenario[0] != '\0' ? c.scenario : "none";
  if (c.edges > 0) s += "_hier" + std::to_string(c.edges);
  return s;
}

std::unique_ptr<Strategy> make_sync(const std::string& name) {
  if (name == "fedavg") return std::make_unique<FedAvgStrategy>();
  if (name == "stc") {
    StcConfig c;
    c.q = 0.25;
    return std::make_unique<StcStrategy>(c);
  }
  if (name == "apf") {
    ApfConfig c;
    c.check_every = 2;
    c.base_freeze = 2;
    c.max_freeze = 8;
    return std::make_unique<ApfStrategy>(c);
  }
  GlueFlConfig g;
  g.q = 0.3;
  g.q_shr = 0.1;
  g.regen_every = 3;
  g.sticky_group_size = 20;
  g.sticky_per_round = 3;
  return std::make_unique<GlueFlStrategy>(g);
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

void put_f64(std::vector<uint8_t>& out, double v) {
  // One canonical NaN: the digest pins "no value", not a NaN's sign bit.
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_f32s(std::vector<uint8_t>& out, const std::vector<float>& v) {
  for (const float x : v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<uint8_t>(bits >> (8 * b)));
    }
  }
}

uint32_t model_digest(const SimEngine& eng) {
  std::vector<uint8_t> buf;
  put_f32s(buf, eng.params());
  put_f32s(buf, eng.stats());
  return ckpt::crc32(buf.data(), buf.size());
}

uint32_t records_digest(const RunResult& r, uint64_t frames_rejected) {
  std::vector<uint8_t> buf;
  for (const RoundRecord& rec : r.rounds) {
    put_u64(buf, static_cast<uint64_t>(rec.round));
    put_f64(buf, rec.down_bytes);
    put_f64(buf, rec.up_bytes);
    put_f64(buf, rec.down_time_s);
    put_f64(buf, rec.up_time_s);
    put_f64(buf, rec.compute_time_s);
    put_f64(buf, rec.wall_time_s);
    put_f64(buf, rec.train_loss);
    put_f64(buf, rec.test_acc);
    put_u64(buf, static_cast<uint64_t>(rec.num_invited));
    put_u64(buf, static_cast<uint64_t>(rec.num_included));
    put_f64(buf, rec.mean_staleness);
    put_f64(buf, rec.changed_frac);
    put_f64(buf, rec.mask_overlap);
  }
  put_u64(buf, frames_rejected);
  return ckpt::crc32(buf.data(), buf.size());
}

// Readable parameter names in gtest output instead of a byte dump.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << case_name(c); }

class Golden : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void SetUp() override {
    telemetry::reset();
    telemetry::configure(telemetry::Options{});
  }
  void TearDown() override { telemetry::reset(); }
};

void expect_pins(const GoldenCase& c) {
  RunConfig rc = testing::tiny_run_config(/*rounds=*/6, /*k=*/6,
                                          /*seed=*/11);
  rc.eval_every = 3;
  rc.overcommit = 1.3;
  rc.use_availability = true;
  rc.num_threads = 1;
  rc.wire.mode = c.wire;
  rc.topology.num_edges = c.edges;
  if (c.scenario[0] != '\0') {
    rc.scenario = scenario::load_scenario(c.scenario);
  }
  SimEngine eng(make_synthetic_dataset(testing::tiny_spec()),
                testing::tiny_proxy(), make_edge_env(),
                testing::tiny_train_config(), rc);

  RunResult r;
  if (std::string(c.strategy) == "async-fedbuff") {
    AsyncConfig acfg;
    acfg.buffer_size = 3;
    acfg.concurrency = 9;
    AsyncSimEngine async(eng, acfg);
    AsyncFedBuffStrategy strat{AsyncFedBuffConfig{}};
    r = async.run(strat);
  } else {
    auto strat = make_sync(c.strategy);
    r = eng.run(*strat);
  }
  const uint64_t rejected =
      telemetry::value(telemetry::kScenarioFramesRejected);
  const uint32_t model = model_digest(eng);
  const uint32_t records = records_digest(r, rejected);
  char actual[96];
  std::snprintf(actual, sizeof(actual),
                "actual: model 0x%08x records 0x%08x (rejected %llu)", model,
                records, static_cast<unsigned long long>(rejected));
  EXPECT_EQ(model, c.model_crc) << actual;
  EXPECT_EQ(records, c.records_crc) << actual;
}

TEST_P(Golden, DigestsMatchPins) { expect_pins(GetParam()); }

// The same pins with the portable GEMM kernel forced, so they hold for
// every kernel and not only for the one this CPU dispatches to.
TEST_P(Golden, PortableGemmKernelMatchesPins) {
  const gemm::KernelKind dispatched = gemm::active_kernel_kind();
  gemm::force_kernel(gemm::KernelKind::kPortable);
  expect_pins(GetParam());
  gemm::force_kernel(dispatched);
}

constexpr WireMode kEnc = WireMode::kEncoded;
constexpr WireMode kAna = WireMode::kAnalytic;

INSTANTIATE_TEST_SUITE_P(
    Pins, Golden,
    ::testing::Values(
        GoldenCase{"fedavg", kEnc, "", 0,
                   0x5772dbcau, 0x656e3b12u},
        GoldenCase{"fedavg", kAna, "", 0,
                   0x5772dbcau, 0x9ba8f136u},
        GoldenCase{"fedavg", kEnc, "hostile", 0,
                   0xb22d06ddu, 0xa1c85961u},
        GoldenCase{"fedavg", kAna, "hostile", 0,
                   0xb22d06ddu, 0x98f8dd1au},
        GoldenCase{"stc", kEnc, "", 0,
                   0x843f6dffu, 0x92667fdfu},
        GoldenCase{"stc", kAna, "", 0,
                   0x843f6dffu, 0x02db92c2u},
        GoldenCase{"stc", kEnc, "hostile", 0,
                   0xa22ffb49u, 0x6d14fc30u},
        GoldenCase{"stc", kAna, "hostile", 0,
                   0xa22ffb49u, 0xdd4969d6u},
        GoldenCase{"apf", kEnc, "", 0,
                   0xd32fe7b8u, 0x00d406c9u},
        GoldenCase{"apf", kAna, "", 0,
                   0xd32fe7b8u, 0x67e1c70du},
        GoldenCase{"apf", kEnc, "hostile", 0,
                   0xfd5d8b81u, 0xe705687cu},
        GoldenCase{"apf", kAna, "hostile", 0,
                   0xfd5d8b81u, 0x539a42feu},
        GoldenCase{"gluefl", kEnc, "", 0,
                   0xa9c54bc3u, 0x4b4b1282u},
        GoldenCase{"gluefl", kAna, "", 0,
                   0xa9c54bc3u, 0xf665008cu},
        GoldenCase{"gluefl", kEnc, "hostile", 0,
                   0x273ae3a6u, 0x188f835eu},
        GoldenCase{"gluefl", kAna, "hostile", 0,
                   0x273ae3a6u, 0xf198a004u},
        GoldenCase{"gluefl", kEnc, "", 2,
                   0xa9c54bc3u, 0xdba06328u},
        GoldenCase{"async-fedbuff", kEnc, "hostile", 0,
                   0x24a86c6bu, 0xcb2e21d7u},
        GoldenCase{"async-fedbuff", kAna, "hostile", 0,
                   0x24a86c6bu, 0x45e070deu}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace gluefl
