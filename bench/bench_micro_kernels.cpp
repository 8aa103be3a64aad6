// Micro-benchmarks (google-benchmark) for the hot kernels of the
// simulator: top-k selection, bitmask algebra, sparse scatter, GEMM, and
// the SyncTracker union that dominates staleness accounting.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/topk.h"
#include "fl/sync_tracker.h"
#include "tensor/gemm_kernels.h"

namespace gluefl {
namespace {

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_TopKAbs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = n / 5;  // q = 20%
  const auto x = random_vec(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs(x.data(), n, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKAbs)->Arg(33000)->Arg(62000)->Arg(1 << 20);

// Args: n, percent of positions allowed, k. The first arm is GlueFL's
// client-side shape on the OpenImage proxy: top-(q - q_shr) over the
// complement of a 16% shared mask (dim 33,600, k = 1,344).
void BM_TopKAbsMasked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double allowed_frac = static_cast<double>(state.range(1)) / 100.0;
  const size_t k = static_cast<size_t>(state.range(2));
  const auto x = random_vec(n, 2);
  Rng rng(4);
  BitMask allowed(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(allowed_frac)) allowed.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs_masked(x.data(), n, k, allowed));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKAbsMasked)
    ->Args({33600, 84, 1344})
    ->Args({33000, 50, 3300})
    ->Args({1 << 20, 50, (1 << 20) / 10});

void BM_BitMaskUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitMask a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.set(i);
  for (size_t i = 1; i < n; i += 3) b.set(i);
  for (auto _ : state) {
    BitMask c = a;
    c |= b;
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_BitMaskUnion)->Arg(33000)->Arg(1 << 20);

void BM_ScatterAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = random_vec(n, 3);
  const SparseVec s = top_k_abs(x.data(), n, n / 5);
  std::vector<float> out(n, 0.0f);
  for (auto _ : state) {
    scatter_add(s, 0.5f, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScatterAdd)->Arg(33000)->Arg(1 << 20);

// The three GEMMs of one ShuffleNet-proxy hidden layer (128 -> 128) on a
// batch of 16, per kernel. Arg 0 picks the GEMM (0 nn forward, 1 nt input
// gradient, 2 tn weight gradient), arg 1 the kernel (0 portable, 1 avx2).
void BM_Gemm(benchmark::State& state) {
  const auto kind = static_cast<gemm::KernelKind>(state.range(1));
  if (!gemm::kernel_supported(kind)) {
    state.SkipWithError("kernel not supported by this build/CPU");
    return;
  }
  const gemm::Kernel& kern = gemm::kernel(kind);
  const int bs = 16, in = 128, out = 128;
  const auto x = random_vec(static_cast<size_t>(bs) * in, 4);
  const auto w = random_vec(static_cast<size_t>(in) * out, 5);
  const auto g = random_vec(static_cast<size_t>(bs) * out, 6);
  std::vector<float> c(static_cast<size_t>(in) * out);
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (which == 0) kern.nn(x.data(), w.data(), c.data(), bs, in, out, false);
    if (which == 1) kern.nt(g.data(), w.data(), c.data(), bs, out, in, false);
    if (which == 2) kern.tn(x.data(), g.data(), c.data(), bs, in, out, true);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const char* names[] = {"nn", "nt", "tn"};
  state.SetLabel(std::string(names[which]) + "/" + kern.name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * bs *
                          in * out);
}
BENCHMARK(BM_Gemm)->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_SyncTrackerUnion(benchmark::State& state) {
  // A client stale by `range` rounds under q = 20% masking of a 33k-dim
  // model: the per-invitee cost of the staleness accounting.
  const size_t dim = 33000;
  const int stale = static_cast<int>(state.range(0));
  SyncTracker t(4, dim);
  Rng rng(6);
  for (int r = 0; r < stale; ++r) {
    BitMask m(dim);
    for (size_t i = 0; i < dim / 5; ++i) {
      m.set(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(dim) - 1)));
    }
    t.record_round_changes(r, m);
  }
  t.mark_synced(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.stale_positions(0, stale));
  }
}
BENCHMARK(BM_SyncTrackerUnion)->Arg(10)->Arg(100)->Arg(500);

}  // namespace
}  // namespace gluefl

BENCHMARK_MAIN();
