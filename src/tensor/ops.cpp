#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gluefl {

namespace {

// c[0..n) += sum over r < rows of x[r * xs] * y[r * n + j] in ascending r
// order, bit-identical to the plain loop, storing c once per kRowBlock rows;
// a store per product swung speed ~40% with heap layout on Sapphire Rapids.
constexpr int kRowBlock = 8;

void accumulate_row(const float* x, size_t xs, const float* y, int rows,
                    size_t n, float* c) {
  int r = 0;
  for (; r + kRowBlock <= rows; r += kRowBlock) {
    float xv[kRowBlock];
    for (int q = 0; q < kRowBlock; ++q) xv[q] = x[(r + q) * xs];
    const float* yr = y + r * n;
    for (size_t j = 0; j < n; ++j) {
      float s = c[j];
      for (int q = 0; q < kRowBlock; ++q) s += xv[q] * yr[q * n + j];
      c[j] = s;
    }
  }
  for (; r < rows; ++r) {
    const float xv = x[r * xs];
    for (size_t j = 0; j < n; ++j) c[j] += xv * y[r * n + j];
  }
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    accumulate_row(a + static_cast<size_t>(i) * k, 1, b, k, n,
                   c + static_cast<size_t>(i) * n);
  }
}

void gemm_nt(const float* a, const float* b, float* c, int m, int n, int k,
             bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * n;
    float* ci = c + static_cast<size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* bp = b + static_cast<size_t>(p) * n;
      float acc = accumulate ? ci[p] : 0.0f;
      // dot over the contiguous axis
      float s = 0.0f;
      for (int j = 0; j < n; ++j) s += ai[j] * bp[j];
      ci[p] = acc + s;
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(k) * n);
  for (int p = 0; p < k; ++p) {
    accumulate_row(a + p, k, b, m, n, c + static_cast<size_t>(p) * n);
  }
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
