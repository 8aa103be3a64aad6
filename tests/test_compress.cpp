// BitMask / top-k / encoding / error-feedback / quantizer tests.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/encoding.h"
#include "compress/error_feedback.h"
#include "compress/quantizer.h"
#include "compress/topk.h"

namespace gluefl {
namespace {

// The selection top_k_abs replaced: nth_element + sort under
// (|x| desc, index asc). Kept as the oracle for NaN-free inputs, where
// that comparator is a strict weak order.
SparseVec oracle_top_k(const float* x, size_t n, size_t k,
                       const BitMask* allowed) {
  std::vector<uint32_t> cand;
  for (size_t i = 0; i < n; ++i) {
    if (allowed == nullptr || allowed->test(i)) {
      cand.push_back(static_cast<uint32_t>(i));
    }
  }
  SparseVec out;
  if (k == 0 || cand.empty()) return out;
  k = std::min(k, cand.size());
  auto greater = [x](uint32_t a, uint32_t b) {
    const float ma = std::fabs(x[a]);
    const float mb = std::fabs(x[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  };
  std::nth_element(cand.begin(), cand.begin() + static_cast<long>(k) - 1,
                   cand.end(), greater);
  cand.resize(k);
  std::sort(cand.begin(), cand.end());
  out.idx = std::move(cand);
  out.val.resize(k);
  for (size_t i = 0; i < k; ++i) out.val[i] = x[out.idx[i]];
  return out;
}

bool same_bits(const SparseVec& a, const SparseVec& b) {
  return a.idx.size() == b.idx.size() && a.val.size() == b.val.size() &&
         a.idx.size() == a.val.size() &&
         (a.idx.empty() ||
          (std::memcmp(a.idx.data(), b.idx.data(),
                       a.idx.size() * sizeof(uint32_t)) == 0 &&
           std::memcmp(a.val.data(), b.val.data(),
                       a.val.size() * sizeof(float)) == 0));
}

TEST(BitMask, SetTestReset) {
  BitMask m(100);
  EXPECT_FALSE(m.test(7));
  m.set(7);
  EXPECT_TRUE(m.test(7));
  m.reset(7);
  EXPECT_FALSE(m.test(7));
}

TEST(BitMask, CountAndAny) {
  BitMask m(200);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.any());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(199);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_TRUE(m.any());
}

TEST(BitMask, SetAllRespectsDomain) {
  BitMask m(70);  // crosses a word boundary with padding
  m.set_all();
  EXPECT_EQ(m.count(), 70u);
  m.flip();
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMask, FlipIsComplement) {
  BitMask m(130);
  m.set(1);
  m.set(129);
  m.flip();
  EXPECT_EQ(m.count(), 128u);
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(0));
}

TEST(BitMask, UnionIntersectAndNot) {
  BitMask a(64), b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  BitMask u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  BitMask i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
  BitMask d = a;
  d.and_not(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
  EXPECT_EQ(BitMask::intersection_count(a, b), 1u);
}

TEST(BitMask, DomainMismatchThrows) {
  BitMask a(10), b(11);
  EXPECT_THROW(a |= b, CheckError);
}

TEST(BitMask, IndicesRoundTrip) {
  const std::vector<uint32_t> idx{0, 5, 63, 64, 99};
  const BitMask m = BitMask::from_indices(100, idx);
  EXPECT_EQ(m.to_indices(), idx);
}

TEST(BitMask, ForEachSetAscending) {
  BitMask m(128);
  m.set(100);
  m.set(3);
  m.set(64);
  std::vector<size_t> seen;
  m.for_each_set([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 64, 100}));
}

TEST(BitMask, WireBytes) {
  EXPECT_EQ(BitMask(8).wire_bytes(), 1u);
  EXPECT_EQ(BitMask(9).wire_bytes(), 2u);
  EXPECT_EQ(BitMask(1000).wire_bytes(), 125u);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> x{0.1f, -5.0f, 2.0f, -0.3f, 4.0f};
  const SparseVec s = top_k_abs(x.data(), x.size(), 2);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.idx[0], 1u);
  EXPECT_EQ(s.idx[1], 4u);
  EXPECT_FLOAT_EQ(s.val[0], -5.0f);
  EXPECT_FLOAT_EQ(s.val[1], 4.0f);
}

TEST(TopK, KZeroAndKBiggerThanN) {
  const std::vector<float> x{1.0f, 2.0f};
  EXPECT_EQ(top_k_abs(x.data(), 2, 0).nnz(), 0u);
  EXPECT_EQ(top_k_abs(x.data(), 2, 10).nnz(), 2u);
}

TEST(TopK, TieBreaksTowardLowerIndex) {
  const std::vector<float> x{1.0f, -1.0f, 1.0f, 1.0f};
  const SparseVec s = top_k_abs(x.data(), 4, 2);
  EXPECT_EQ(s.idx[0], 0u);
  EXPECT_EQ(s.idx[1], 1u);
}

TEST(TopK, MatchesSortReference) {
  Rng rng(21);
  std::vector<float> x(500);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const size_t k = 50;
  const SparseVec s = top_k_abs(x.data(), x.size(), k);
  // Reference: magnitude of the kept set >= magnitude of everything else.
  float min_kept = 1e30f;
  std::vector<bool> kept(x.size(), false);
  for (size_t i = 0; i < k; ++i) {
    min_kept = std::min(min_kept, std::fabs(s.val[i]));
    kept[s.idx[i]] = true;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (!kept[i]) {
      EXPECT_LE(std::fabs(x[i]), min_kept + 1e-6f);
    }
  }
}

TEST(TopK, MaskedSelectionHonorsMask) {
  const std::vector<float> x{10.0f, 9.0f, 8.0f, 7.0f};
  BitMask allowed(4);
  allowed.set(2);
  allowed.set(3);
  const SparseVec s = top_k_abs_masked(x.data(), 4, 1, allowed);
  ASSERT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.idx[0], 2u);
}

TEST(TopK, MaskedWithFewerAllowedThanK) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  BitMask allowed(3);
  allowed.set(0);
  EXPECT_EQ(top_k_abs_masked(x.data(), 3, 5, allowed).nnz(), 1u);
}

TEST(TopK, ScatterAddScalesIntoPlace) {
  SparseVec s;
  s.idx = {1, 3};
  s.val = {2.0f, 4.0f};
  std::vector<float> out(4, 0.0f);
  scatter_add(s, 2.0f, out.data());
  EXPECT_FLOAT_EQ(out[1], 4.0f);
  EXPECT_FLOAT_EQ(out[3], 8.0f);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

// Inputs for the oracle comparison; each stresses a different part of the
// radix select.
std::vector<float> oracle_input(const std::string& kind, size_t n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (size_t i = 0; i < n; ++i) {
    float v = 0.0f;
    if (kind == "normal") {
      v = static_cast<float>(rng.normal(0.0, 1e-3));
    } else if (kind == "ties") {
      // Few distinct magnitudes and both signs: every threshold lands
      // inside a long run of exact ties.
      v = static_cast<float>(rng.uniform_int(0, 4)) * 0.25f;
      if (rng.bernoulli(0.5)) v = -v;
    } else if (kind == "all_equal") {
      v = (i % 3 == 0) ? -0.5f : 0.5f;
    } else if (kind == "signed_zeros") {
      v = rng.bernoulli(0.5) ? -0.0f : 0.0f;
    } else if (kind == "one_bucket") {
      // Magnitudes that differ only in the low mantissa bits, so the top
      // radix digit cannot separate them.
      v = std::bit_cast<float>(0x3f800000u +
                               static_cast<uint32_t>(rng.uniform_int(0, 3000)));
      if (rng.bernoulli(0.5)) v = -v;
    } else {  // "extremes": +-0, subnormals, +-inf and ordinary values
      const float inf = std::numeric_limits<float>::infinity();
      const float sub = std::numeric_limits<float>::denorm_min();
      const float pool[] = {0.0f,  -0.0f, sub,   -sub,   3 * sub, -2 * sub,
                            inf,   -inf,  1e-3f, -1e-3f, 1.0f,    -1.0f,
                            1e30f, std::numeric_limits<float>::min()};
      v = pool[rng.uniform_int(0, 13)];
    }
    x[i] = v;
  }
  return x;
}

TEST(TopK, MatchesNthElementOracleBitExactly) {
  const char* kinds[] = {"normal",       "ties",       "all_equal",
                         "signed_zeros", "one_bucket", "extremes"};
  const double densities[] = {0.0, 0.16, 0.84, 1.0};
  uint64_t seed = 1;
  for (const size_t n : {1, 2, 7, 64, 4097, 33600}) {
    const size_t ks[] = {1,     std::max<size_t>(1, n / 25),
                         n / 5, n - 1,
                         n,     n + 3};
    for (const char* kind : kinds) {
      const std::vector<float> x = oracle_input(kind, n, ++seed);
      std::vector<BitMask> masks;
      for (const double d : densities) {
        Rng mrng(++seed);
        BitMask m(n);
        for (size_t i = 0; i < n; ++i) {
          if (d >= 1.0 || (d > 0.0 && mrng.bernoulli(d))) m.set(i);
        }
        masks.push_back(std::move(m));
      }
      for (const size_t k : ks) {
        const std::string where = std::string(kind) + " n=" +
                                  std::to_string(n) + " k=" +
                                  std::to_string(k);
        EXPECT_TRUE(same_bits(top_k_abs(x.data(), n, k),
                              oracle_top_k(x.data(), n, k, nullptr)))
            << where;
        for (size_t d = 0; d < masks.size(); ++d) {
          EXPECT_TRUE(
              same_bits(top_k_abs_masked(x.data(), n, k, masks[d]),
                        oracle_top_k(x.data(), n, k, &masks[d])))
              << where << " density=" << densities[d];
        }
      }
    }
  }
}

TEST(TopK, AllEqualLargeInputTakesLowestIndices) {
  // One radix bucket and one key for every entry: the select must still
  // finish in a few linear passes and keep the first k indices.
  const size_t n = size_t{1} << 20;
  const std::vector<float> x(n, -2.5f);
  const size_t k = n / 2 + 1;
  const SparseVec s = top_k_abs(x.data(), n, k);
  ASSERT_EQ(s.nnz(), k);
  EXPECT_EQ(s.idx.front(), 0u);
  EXPECT_EQ(s.idx.back(), static_cast<uint32_t>(k - 1));
  EXPECT_EQ(s.val.back(), -2.5f);
}

TEST(TopK, NanAndInfRankByBitPatternDeterministically) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::bit_cast<float>(0x7fc00000u);
  const float neg_nan = std::bit_cast<float>(0xffc00001u);  // key 0x7fc00001
  //                          0     1     2     3     4     5        6
  const std::vector<float> x{1.0f, -inf, qnan, 2.0f, inf, neg_nan, -0.0f};
  const size_t n = x.size();
  BitMask all(n);
  all.set_all();
  BitMask no_neg_nan = all;
  no_neg_nan.reset(5);

  // Keys: 5 > 2 (NaNs by payload) > 1 == 4 (+-inf, lower index first) >
  // 3 > 0 > 6.
  const std::vector<std::vector<uint32_t>> want_by_k{
      {}, {5}, {2, 5}, {1, 2, 5}, {1, 2, 4, 5}, {1, 2, 3, 4, 5}};
  for (size_t k = 0; k < want_by_k.size(); ++k) {
    const SparseVec s = top_k_abs(x.data(), n, k);
    EXPECT_EQ(s.idx, want_by_k[k]) << "k=" << k;
    EXPECT_TRUE(same_bits(s, top_k_abs_masked(x.data(), n, k, all)));
    EXPECT_TRUE(same_bits(s, top_k_abs(x.data(), n, k))) << "not repeatable";
    for (size_t i = 0; i < s.nnz(); ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(s.val[i]),
                std::bit_cast<uint32_t>(x[s.idx[i]]));
    }
  }
  EXPECT_EQ(top_k_abs_masked(x.data(), n, 3, no_neg_nan).idx,
            (std::vector<uint32_t>{1, 2, 4}));

  // A long delta with NaNs scattered through it: every NaN outranks every
  // number, and the rest of the selection matches the oracle on the
  // NaN-free remainder.
  Rng rng(77);
  std::vector<float> y(4097);
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<uint32_t> nan_at;
  for (size_t i = 5; i < y.size(); i += 397) {
    y[i] = (i % 2) ? qnan : neg_nan;
    nan_at.push_back(static_cast<uint32_t>(i));
  }
  y[100] = -inf;
  y[200] = inf;
  const size_t k = 164;
  const SparseVec s = top_k_abs(y.data(), y.size(), k);
  BitMask ally(y.size());
  ally.set_all();
  EXPECT_TRUE(same_bits(s, top_k_abs_masked(y.data(), y.size(), k, ally)));
  BitMask finite = ally;
  for (const uint32_t i : nan_at) finite.reset(i);
  const SparseVec rest =
      oracle_top_k(y.data(), y.size(), k - nan_at.size(), &finite);
  std::vector<uint32_t> want = rest.idx;
  want.insert(want.end(), nan_at.begin(), nan_at.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(s.idx, want);
}

TEST(Encoding, PositionBytesVariants) {
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kBitmap), 100u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kIndices32), 40u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kAuto), 40u);
}

TEST(Encoding, AutoCrossoverAtDimOver32) {
  const size_t dim = 3200;
  // bitmap = 400 bytes; indices = 4*nnz. Crossover at nnz = 100.
  EXPECT_EQ(position_bytes(99, dim), 396u);
  EXPECT_EQ(position_bytes(101, dim), 400u);
}

TEST(Encoding, SparseAndDenseBytes) {
  EXPECT_EQ(dense_bytes(100), 400u);
  EXPECT_EQ(values_only_bytes(25), 100u);
  EXPECT_EQ(sparse_update_bytes(10, 800), 40u + 40u);
}

TEST(Encoding, NnzCannotExceedDim) {
  EXPECT_THROW(position_bytes(11, 10), CheckError);
}

TEST(ErrorFeedback, NoneModeIsInert) {
  ErrorFeedback ec(ErrorFeedback::Mode::kNone, 3);
  const std::vector<float> r{1.0f, 2.0f, 3.0f};
  ec.store(0, 1.0, r.data());
  std::vector<float> delta(3, 0.0f);
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 0.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 0u);
}

TEST(ErrorFeedback, RawModeAddsResidualUnscaled) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 2);
  const std::vector<float> r{1.0f, -1.0f};
  ec.store(5, 4.0, r.data());
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(5, 0.5, delta.data());  // weights ignored in raw mode
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], -1.0f);
}

TEST(ErrorFeedback, RescaledModeUsesWeightRatio) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  const std::vector<float> r{2.0f, 4.0f};
  ec.store(7, 3.0, r.data());  // stored with nu = 3
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(7, 6.0, delta.data());  // now nu = 6 -> coef = 3/6 = 0.5
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], 2.0f);
}

TEST(ErrorFeedback, UnknownClientIsNoop) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  std::vector<float> delta{1.0f, 1.0f};
  ec.apply(99, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
}

TEST(ErrorFeedback, StoreOverwrites) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 1);
  const float a = 1.0f;
  const float b = 5.0f;
  ec.store(0, 1.0, &a);
  ec.store(0, 1.0, &b);
  std::vector<float> delta{0.0f};
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 5.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 1u);
}

TEST(Quantizer, ValuesStayInRangeOnGrid) {
  Rng rng(31);
  UniformQuantizer q(4);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const float max_abs_before =
      std::fabs(*std::max_element(x.begin(), x.end(), [](float a, float b) {
        return std::fabs(a) < std::fabs(b);
      }));
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_LE(std::fabs(v), max_abs_before + 1e-5f);
}

TEST(Quantizer, StochasticRoundingIsUnbiased) {
  Rng rng(33);
  UniformQuantizer q(2);
  const int trials = 4000;
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> x{0.3f, 1.0f};  // 1.0 pins the scale
    q.quantize(x.data(), 2, rng);
    sum += x[0];
  }
  EXPECT_NEAR(sum / trials, 0.3, 0.02);
}

TEST(Quantizer, PayloadBytes) {
  UniformQuantizer q8(8);
  EXPECT_EQ(q8.payload_bytes(100), 100u + 4u);
  UniformQuantizer q1(1);
  EXPECT_EQ(q1.payload_bytes(16), 2u + 4u);
}

TEST(Quantizer, ZeroVectorUnchanged) {
  Rng rng(35);
  UniformQuantizer q(8);
  std::vector<float> x(10, 0.0f);
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace gluefl
