#include "tensor/ops.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gluefl {
namespace {

// Reference GEMM with explicit transposition flags.
std::vector<float> ref_gemm(const std::vector<float>& a,
                            const std::vector<float>& b, int m, int k, int n,
                            bool ta, bool tb) {
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[static_cast<size_t>(p) * m + i]
                            : a[static_cast<size_t>(i) * k + p];
        const float bv = tb ? b[static_cast<size_t>(j) * k + p]
                            : b[static_cast<size_t>(p) * n + j];
        s += av * bv;
      }
      c[static_cast<size_t>(i) * n + j] = s;
    }
  }
  return c;
}

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Tensor, GemmNnMatchesReference) {
  Rng rng(1);
  const int m = 5, k = 7, n = 3;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  std::vector<float> c(static_cast<size_t>(m) * n);
  gemm_nn(a.data(), b.data(), c.data(), m, k, n);
  const auto ref = ref_gemm(a, b, m, k, n, false, false);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Tensor, GemmNnAccumulates) {
  Rng rng(2);
  const int m = 2, k = 3, n = 2;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 1.0f);
  gemm_nn(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  const auto ref = ref_gemm(a, b, m, k, n, false, false);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i] + 1.0f, 1e-4);
}

TEST(Tensor, GemmNtMatchesReference) {
  Rng rng(3);
  // C[m,k] = A[m,n] * B[k,n]^T
  const int m = 4, n = 6, k = 5;
  const auto a = random_vec(static_cast<size_t>(m) * n, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  std::vector<float> c(static_cast<size_t>(m) * k);
  gemm_nt(a.data(), b.data(), c.data(), m, n, k);
  const auto ref = ref_gemm(a, b, m, n, k, false, true);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Tensor, GemmTnMatchesReference) {
  Rng rng(4);
  // C[k,n] = A[m,k]^T * B[m,n]
  const int m = 6, k = 4, n = 3;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(m) * n, rng);
  std::vector<float> c(static_cast<size_t>(k) * n);
  gemm_tn(a.data(), b.data(), c.data(), m, k, n);
  const auto ref = ref_gemm(a, b, k, m, n, true, false);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4);
}

// Training digests depend on the exact float sums, so gemm_nn and gemm_tn
// must add each output's products in ascending reduction order however they
// block it: reductions of 13 (gemm_nn) and 9 (gemm_tn) rows cover a full
// block plus a tail, and n = 70 leaves a tail of the vectorized axis.
TEST(Tensor, GemmNnTnSumInReductionOrderBitExactly) {
  Rng rng(5);
  const int m = 9, k = 13, n = 70;
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  const auto c0 = random_vec(static_cast<size_t>(m) * n, rng);
  for (const bool acc : {false, true}) {
    std::vector<float> c = c0;
    gemm_nn(a.data(), b.data(), c.data(), m, k, n, acc);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        const size_t o = static_cast<size_t>(i) * n + j;
        float s = acc ? c0[o] : 0.0f;
        for (int p = 0; p < k; ++p) {
          s += a[static_cast<size_t>(i) * k + p] *
               b[static_cast<size_t>(p) * n + j];
        }
        ASSERT_EQ(c[o], s) << "nn i=" << i << " j=" << j << " acc=" << acc;
      }
    }
  }
  // gemm_tn: C[k,n] = A[m,k]^T * B[m,n], summed over the m rows in order.
  const auto bt = random_vec(static_cast<size_t>(m) * n, rng);
  const auto ct0 = random_vec(static_cast<size_t>(k) * n, rng);
  for (const bool acc : {false, true}) {
    std::vector<float> c = ct0;
    gemm_tn(a.data(), bt.data(), c.data(), m, k, n, acc);
    for (int p = 0; p < k; ++p) {
      for (int j = 0; j < n; ++j) {
        const size_t o = static_cast<size_t>(p) * n + j;
        float s = acc ? ct0[o] : 0.0f;
        for (int i = 0; i < m; ++i) {
          s += a[static_cast<size_t>(i) * k + p] *
               bt[static_cast<size_t>(i) * n + j];
        }
        ASSERT_EQ(c[o], s) << "tn p=" << p << " j=" << j << " acc=" << acc;
      }
    }
  }
}

TEST(Tensor, Axpy) {
  std::vector<float> x{1.0f, 2.0f, 3.0f};
  std::vector<float> y{10.0f, 20.0f, 30.0f};
  axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Tensor, ScaleFillSub) {
  std::vector<float> x{2.0f, 4.0f};
  scale(0.5f, x.data(), 2);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
  fill(x.data(), 2, 7.0f);
  EXPECT_FLOAT_EQ(x[0], 7.0f);
  std::vector<float> a{5.0f, 3.0f};
  std::vector<float> b{2.0f, 1.0f};
  std::vector<float> out(2);
  sub(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(Tensor, DotAndSqnorm) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  std::vector<float> b{4.0f, 5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(dot(a.data(), b.data(), 3), 32.0);
  EXPECT_DOUBLE_EQ(sqnorm(a.data(), 3), 14.0);
}

TEST(Tensor, AddRowBias) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};  // 2x2
  std::vector<float> bias{10.0f, 20.0f};
  add_row_bias(bias.data(), x.data(), 2, 2);
  EXPECT_FLOAT_EQ(x[0], 11.0f);
  EXPECT_FLOAT_EQ(x[1], 22.0f);
  EXPECT_FLOAT_EQ(x[2], 13.0f);
  EXPECT_FLOAT_EQ(x[3], 24.0f);
}

TEST(Tensor, SoftmaxRows) {
  std::vector<float> x{0.0f, 0.0f, 1000.0f, 0.0f};  // 2x2, row 2 is extreme
  softmax_rows(x.data(), 2, 2);
  EXPECT_NEAR(x[0], 0.5f, 1e-6);
  EXPECT_NEAR(x[1], 0.5f, 1e-6);
  EXPECT_NEAR(x[2], 1.0f, 1e-6);  // no overflow thanks to max-shift
  EXPECT_NEAR(x[3], 0.0f, 1e-6);
  // Rows sum to one.
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6);
  EXPECT_NEAR(x[2] + x[3], 1.0f, 1e-6);
}

}  // namespace
}  // namespace gluefl
