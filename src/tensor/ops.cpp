#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "tensor/gemm_kernels.h"

namespace gluefl {

namespace gemm {

namespace {

// The portable kernel: the tiled source at the build's baseline vector
// width (SSE2 on x86-64).
constexpr int kVec = 4;
#include "tensor/gemm_tiles.inc"

constexpr Kernel kPortableKernel{"portable", &tiled_nn, &tiled_nt,
                                 &tiled_tn};

const Kernel* kernel_ptr(KernelKind kind) {
  if (kind == KernelKind::kPortable) return &kPortableKernel;
#if defined(GLUEFL_NN_SIMD)
  if (kind == KernelKind::kAvx2 && __builtin_cpu_supports("avx2")) {
    return &detail::kAvx2Kernel;
  }
#endif
  return nullptr;
}

// Resolved lazily; a benign race re-runs the deterministic resolution.
std::atomic<const Kernel*> g_active{nullptr};

}  // namespace

bool kernel_supported(KernelKind kind) { return kernel_ptr(kind) != nullptr; }

const Kernel& kernel(KernelKind kind) {
  const Kernel* k = kernel_ptr(kind);
  GLUEFL_CHECK_MSG(k != nullptr,
                   "gemm: kernel not supported by this build/CPU");
  return *k;
}

const Kernel& active_kernel() {
  const Kernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = kernel_supported(KernelKind::kAvx2) ? kernel_ptr(KernelKind::kAvx2)
                                            : &kPortableKernel;
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

KernelKind active_kernel_kind() {
  return &active_kernel() == &kPortableKernel ? KernelKind::kPortable
                                              : KernelKind::kAvx2;
}

void force_kernel(KernelKind kind) {
  g_active.store(&kernel(kind), std::memory_order_release);
}

}  // namespace gemm

void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  gemm::active_kernel().nn(a, b, c, m, k, n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, int m, int n, int k,
             bool accumulate) {
  gemm::active_kernel().nt(a, b, c, m, n, k, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  gemm::active_kernel().tn(a, b, c, m, k, n, accumulate);
}

void axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void fill(float* x, size_t n, float v) {
  std::fill(x, x + n, v);
}

double dot(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

double sqnorm(const float* x, size_t n) { return dot(x, x, n); }

void add_row_bias(const float* bias, float* x, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* xi = x + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) xi[j] += bias[j];
  }
}

void softmax_rows(float* x, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* xi = x + static_cast<size_t>(i) * n;
    float mx = xi[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, xi[j]);
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      xi[j] = std::exp(xi[j] - mx);
      sum += xi[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < n; ++j) xi[j] *= inv;
  }
}

}  // namespace gluefl
