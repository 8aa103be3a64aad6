#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/gemm_kernels.h"

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

// Training digests depend on the exact float sums, so every GEMM must add
// each output's products in its defined order however it blocks the work:
// gemm_nn and gemm_tn add onto C in ascending reduction order, and gemm_nt
// sums its dot from +0 in ascending order before adding it to C. Reductions
// of 13 (gemm_nn), 9 (gemm_tn) and 70 (gemm_nt) cover full tiles plus
// tails, and n = 70 leaves a tail of the vectorized axis.
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
  // gemm_nt: C[m,k] = A[m,n] * B[k,n]^T with a[i,:] and b[p,:] contiguous;
  // a kernel that splits or reassociates the dot fails here.
  const auto bn = random_vec(static_cast<size_t>(k) * n, rng);
  const auto an = random_vec(static_cast<size_t>(m) * n, rng);
  const auto cn0 = random_vec(static_cast<size_t>(m) * k, rng);
  for (const bool acc : {false, true}) {
    std::vector<float> c = cn0;
    gemm_nt(an.data(), bn.data(), c.data(), m, n, k, acc);
    for (int i = 0; i < m; ++i) {
      for (int p = 0; p < k; ++p) {
        const size_t o = static_cast<size_t>(i) * k + p;
        float s = 0.0f;
        for (int j = 0; j < n; ++j) {
          s += an[static_cast<size_t>(i) * n + j] *
               bn[static_cast<size_t>(p) * n + j];
        }
        ASSERT_EQ(c[o], (acc ? cn0[o] : 0.0f) + s)
            << "nt i=" << i << " p=" << p << " acc=" << acc;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel bit-identity: every GEMM kernel this build and CPU support must
// reproduce the oracle's bytes. The oracles are the plain loops that define
// each GEMM's summation order (DESIGN.md §7b).

void oracle_nn(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& cij = c[static_cast<size_t>(i) * n + j];
      if (!accumulate) cij = 0.0f;
      for (int p = 0; p < k; ++p) {
        cij += a[static_cast<size_t>(i) * k + p] *
               b[static_cast<size_t>(p) * n + j];
      }
    }
  }
}

void oracle_nt(const float* a, const float* b, float* c, int m, int n, int k,
               bool accumulate) {
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      float s = 0.0f;
      for (int j = 0; j < n; ++j) {
        s += a[static_cast<size_t>(i) * n + j] *
             b[static_cast<size_t>(p) * n + j];
      }
      float& cip = c[static_cast<size_t>(i) * k + p];
      cip = (accumulate ? cip : 0.0f) + s;
    }
  }
}

void oracle_tn(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      float& cpj = c[static_cast<size_t>(p) * n + j];
      if (!accumulate) cpj = 0.0f;
      for (int i = 0; i < m; ++i) {
        cpj += a[static_cast<size_t>(i) * k + p] *
               b[static_cast<size_t>(i) * n + j];
      }
    }
  }
}

// Normal values salted with +0, -0 and subnormals (whose products underflow
// too).
std::vector<float> salted_vec(size_t n, Rng& rng) {
  std::vector<float> v = random_vec(n, rng);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) v[i] = 0.0f;
    if (i % 11 == 5) v[i] = -0.0f;
    if (i % 13 == 6) v[i] = (i % 2 ? -1.0f : 1.0f) * 3.0e-39f;
    if (i % 17 == 8) v[i] *= 1.0e-36f;
  }
  return v;
}

// A buffer whose data starts one float past an aligned allocation, with a
// trailing guard region the kernels must not touch.
struct Offset {
  explicit Offset(const std::vector<float>& v)
      : buf(v.size() + 1 + kGuard, 1234.5f) {
    for (size_t i = 0; i < v.size(); ++i) buf[i + 1] = v[i];
  }
  float* data() { return buf.data() + 1; }
  static constexpr size_t kGuard = 9;
  std::vector<float> buf;
};

struct GemmCase {
  const char* name;
  gemm::GemmFn oracle;
  // Element counts of A, B and C for (rows, reduction, outputs).
  size_t (*a_size)(size_t m, size_t r, size_t o);
  size_t (*b_size)(size_t m, size_t r, size_t o);
  size_t (*c_size)(size_t m, size_t r, size_t o);
  gemm::GemmFn (*pick)(const gemm::Kernel&);
};

class GemmKernelTest : public ::testing::TestWithParam<gemm::KernelKind> {
 protected:
  static inline const std::vector<size_t> kRows = {1, 2,  5,  7,  8,
                                                   9, 15, 16, 17, 256};
  static inline const std::vector<size_t> kDims = {1, 7, 8, 9, 62, 64, 128};

  void SetUp() override {
    if (!gemm::kernel_supported(GetParam())) {
      GTEST_SKIP() << "kernel not supported by this build/CPU";
    }
    initial_ = gemm::active_kernel_kind();
  }
  void TearDown() override { gemm::force_kernel(initial_); }

  // Runs the kernel and the oracle over rows x reductions x outputs and
  // compares the bytes of C, guard region included.
  void check(const GemmCase& g, const std::vector<size_t>& rows = kRows,
             const std::vector<size_t>& reductions = kDims,
             const std::vector<size_t>& outputs = kDims) {
    const gemm::GemmFn fn = g.pick(gemm::kernel(GetParam()));
    Rng rng(17);
    for (const size_t m : rows) {
      for (const size_t r : reductions) {
        for (const size_t o : outputs) {
          auto a = salted_vec(g.a_size(m, r, o), rng);
          auto b = salted_vec(g.b_size(m, r, o), rng);
          const auto c0 = salted_vec(g.c_size(m, r, o), rng);
          ASSERT_TRUE(same_bytes(g, fn, a, b, c0, m, r, o)) << "salted";
          // Every product -0: each sum shows whether it starts from +0
          // (giving +0) or from its first product (giving -0).
          for (float& v : a) v = -0.0f;
          for (float& v : b) v = std::fabs(v);
          ASSERT_TRUE(same_bytes(g, fn, a, b, c0, m, r, o)) << "neg_zero";
        }
      }
    }
  }

  ::testing::AssertionResult same_bytes(const GemmCase& g, gemm::GemmFn fn,
                                        const std::vector<float>& a,
                                        const std::vector<float>& b,
                                        const std::vector<float>& c0,
                                        size_t m, size_t r, size_t o) {
    // The oracle's argument order matches the kernel's.
    const int mi = static_cast<int>(m), x = static_cast<int>(r),
              y = static_cast<int>(o);
    for (const bool acc : {false, true}) {
      Offset ak(a), bk(b), ck(c0), want(c0);
      fn(ak.data(), bk.data(), ck.data(), mi, x, y, acc);
      g.oracle(ak.data(), bk.data(), want.data(), mi, x, y, acc);
      if (std::memcmp(ck.buf.data(), want.buf.data(),
                      ck.buf.size() * sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << g.name << " kernel=" << gemm::kernel(GetParam()).name
               << " m=" << m << " reduction=" << r << " outputs=" << o
               << " acc=" << acc;
      }
    }
    return ::testing::AssertionSuccess();
  }

  gemm::KernelKind initial_ = gemm::KernelKind::kPortable;
};

// gemm_nn(a, b, c, m, k, n): A[m,k], B[k,n], C[m,n]; reduction k.
const GemmCase kNn{"gemm_nn", &oracle_nn,
                   [](size_t m, size_t r, size_t) { return m * r; },
                   [](size_t, size_t r, size_t o) { return r * o; },
                   [](size_t m, size_t, size_t o) { return m * o; },
                   [](const gemm::Kernel& k) { return k.nn; }};

// gemm_nt(a, b, c, m, n, k): A[m,n], B[k,n], C[m,k]; reduction n.
const GemmCase kNt{"gemm_nt", &oracle_nt,
                   [](size_t m, size_t r, size_t) { return m * r; },
                   [](size_t, size_t r, size_t o) { return o * r; },
                   [](size_t m, size_t, size_t o) { return m * o; },
                   [](const gemm::Kernel& k) { return k.nt; }};

// gemm_tn(a, b, c, m, k, n): A[m,k], B[m,n], C[k,n]; reduction m, so the
// row list drives the reduction and (r, o) the output shape.
const GemmCase kTn{"gemm_tn", &oracle_tn,
                   [](size_t m, size_t r, size_t) { return m * r; },
                   [](size_t m, size_t, size_t o) { return m * o; },
                   [](size_t, size_t r, size_t o) { return r * o; },
                   [](const gemm::Kernel& k) { return k.tn; }};

TEST_P(GemmKernelTest, NnMatchesOracleBitExactly) { check(kNn); }

TEST_P(GemmKernelTest, NtMatchesOracleBitExactly) { check(kNt); }

// gemm_nt transposes A in chunks of 512 reduction values; longer dots must
// carry each chain across chunks unchanged.
TEST_P(GemmKernelTest, NtLongReductionMatchesOracleBitExactly) {
  check(kNt, {5, 16}, {512, 513, 1100}, {9});
}

TEST_P(GemmKernelTest, TnMatchesOracleBitExactly) { check(kTn); }

TEST_P(GemmKernelTest, ForceKernelSelectsIt) {
  gemm::force_kernel(GetParam());
  EXPECT_EQ(&gemm::active_kernel(), &gemm::kernel(GetParam()));
  EXPECT_EQ(gemm::active_kernel_kind(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GemmKernelTest,
    ::testing::Values(gemm::KernelKind::kPortable, gemm::KernelKind::kAvx2),
    [](const ::testing::TestParamInfo<gemm::KernelKind>& info) {
      return std::string(info.param == gemm::KernelKind::kPortable
                             ? "portable"
                             : "avx2");
    });

TEST(GemmKernelRegistry, PortableAlwaysSupported) {
  EXPECT_TRUE(gemm::kernel_supported(gemm::KernelKind::kPortable));
  EXPECT_STREQ(gemm::kernel(gemm::KernelKind::kPortable).name, "portable");
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
