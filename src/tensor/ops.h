// Dense row-major float kernels used by the neural-network substrate.
//
// All matrices are row-major, shapes given as (rows, cols). The GEMM
// variants cover the three access patterns needed by forward / backward
// passes of fully-connected layers. Each output element sums its products
// in a fixed order, so results do not depend on blocking or on the kernel:
//
//   gemm_nn, gemm_tn  c = (accumulate ? c : +0), then c += product for
//                     ascending reduction index
//   gemm_nt           s = +0, s += a[i,j] * b[p,j] for ascending j, then
//                     c = (accumulate ? c : +0) + s
//
// The GEMMs run a register-tiled kernel chosen once per process (portable,
// or AVX2 without FMA where the CPU has it; tensor/gemm_kernels.h and
// DESIGN.md §7b). Kernels differ in speed only, never in output bits.
#pragma once

#include <cstddef>

namespace gluefl {

/// C[m,n] = A[m,k] * B[k,n]   (or += when accumulate)
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate = false);

/// C[m,k] = A[m,n] * B[k,n]^T (or += when accumulate)
void gemm_nt(const float* a, const float* b, float* c, int m, int n, int k,
             bool accumulate = false);

/// C[k,n] = A[m,k]^T * B[m,n] (or += when accumulate)
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate = false);

/// y += alpha * x  (n elements)
void axpy(float alpha, const float* x, float* y, size_t n);

/// x *= alpha
void scale(float alpha, float* x, size_t n);

/// out = a - b
void sub(const float* a, const float* b, float* out, size_t n);

/// Sets all n entries to v.
void fill(float* x, size_t n, float v);

/// Dot product (double accumulator for stability).
double dot(const float* a, const float* b, size_t n);

/// Squared L2 norm (double accumulator).
double sqnorm(const float* x, size_t n);

/// Adds bias[j] to every row of x[m,n].
void add_row_bias(const float* bias, float* x, int m, int n);

/// Row-wise softmax in place over x[m,n].
void softmax_rows(float* x, int m, int n);

}  // namespace gluefl
