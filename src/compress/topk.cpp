#include "compress/topk.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"

namespace gluefl {

namespace {

// The rank key of v shifted up by one, (bits & 0x7fffffff) + 1, or 0 when
// the position may not be selected (on == 0). Allowed entries have u >= 1.
inline uint32_t shifted_key(float v, uint32_t on) {
  return ((std::bit_cast<uint32_t>(v) & 0x7fffffffu) + 1u) & (0u - on);
}

// x[0..n) with an optional allowed mask; calls f(i, u) in ascending i.
template <bool kMasked>
struct Keyed {
  const float* x;
  size_t n;
  const BitMask* allowed;

  template <typename F>
  void for_each(F&& f) const {
    for (size_t base = 0; base < n; base += 64) {
      const size_t lim = std::min<size_t>(64, n - base);
      const float* xb = x + base;
      if constexpr (kMasked) {
        uint64_t w = allowed->word(base / 64);
        for (size_t j = 0; j < lim; ++j, w >>= 1) {
          f(base + j, shifted_key(xb[j], static_cast<uint32_t>(w) & 1u));
        }
      } else {
        for (size_t j = 0; j < lim; ++j) f(base + j, shifted_key(xb[j], 1u));
      }
    }
  }
};

// Finds the digit holding the need-th largest entry of a histogram, walking
// down from `top`; need becomes the rank within that digit.
uint32_t find_digit(const uint32_t* hist, uint32_t top, size_t& need) {
  uint32_t d = top;
  while (hist[d] < need) need -= hist[d--];
  return d;
}

// Exact top-k by (key desc, index asc) over the m allowed positions.
//
// A radix select over u: a histogram of the top 11 bits of every entry
// picks the bucket holding the k-th largest. One ascending scan copies out
// the survivors — the entries in that bucket or above, as (u, index) — and
// the bucket's low 21 bits are resolved on the survivors alone (11, then
// 10 bits) into the k-th largest u, T, and the number of entries equal to
// T that fit. Keeping every survivor with u > T and the first `ties` with
// u == T leaves the indices sorted, with no sort and no candidate list.
template <bool kMasked>
SparseVec select_top_k(const Keyed<kMasked>& in, size_t k, size_t m) {
  SparseVec out;
  if (k == 0 || m == 0) return out;
  k = std::min(k, m);

  uint32_t hist[1u << 11] = {};
  uint32_t d0 = 0;
  size_t need = k;  // rank of the k-th largest within the current digit
  if (k < m) {
    in.for_each([&hist](size_t, uint32_t u) { ++hist[u >> 21]; });
    d0 = find_digit(hist, (1u << 11) - 1u, need);
  }
  // k == m keeps every allowed entry: d0 = 0 and below it only u = 0.
  const uint32_t lo = std::max(d0 << 21, 1u);

  // Survivors (u << 32 | index), ascending; one spare slot because the
  // scan stores before it decides whether to keep.
  std::vector<uint64_t> surv((k < m ? k - need + hist[d0] : m) + 1);
  size_t cnt = 0;
  in.for_each([&](size_t i, uint32_t u) {
    surv[cnt] = static_cast<uint64_t>(u) << 32 | i;
    cnt += u >= lo;
  });

  uint32_t thr = lo;
  size_t ties = need;
  if (k < m && hist[d0] != need) {
    const uint32_t p1 = d0 << 11;
    std::memset(hist, 0, sizeof(hist));
    for (size_t s = 0; s < cnt; ++s) {
      const uint32_t u = static_cast<uint32_t>(surv[s] >> 32);
      if ((u >> 21) == d0) ++hist[(u >> 10) & 0x7ffu];
    }
    const uint32_t d1 = find_digit(hist, (1u << 11) - 1u, need);
    std::memset(hist, 0, sizeof(uint32_t) << 10);
    for (size_t s = 0; s < cnt; ++s) {
      const uint32_t u = static_cast<uint32_t>(surv[s] >> 32);
      if ((u >> 10) == (p1 | d1)) ++hist[u & 0x3ffu];
    }
    const uint32_t d2 = find_digit(hist, (1u << 10) - 1u, need);
    thr = (d0 << 21) | (d1 << 10) | d2;
    ties = need;
  }
  // Otherwise every survivor is kept: u > thr takes all of them but the
  // entries equal to thr, and those number at most `ties`.

  out.idx.resize(k + 1);
  uint32_t* idx = out.idx.data();
  size_t pos = 0;
  for (size_t s = 0; s < cnt; ++s) {
    const uint32_t u = static_cast<uint32_t>(surv[s] >> 32);
    const size_t tie = (u == thr) & (ties > 0);
    idx[pos] = static_cast<uint32_t>(surv[s]);
    pos += (u > thr) | tie;
    ties -= tie;
  }
  GLUEFL_CHECK(pos == k);
  out.idx.resize(k);
  out.val.resize(k);
  for (size_t i = 0; i < k; ++i) out.val[i] = in.x[idx[i]];
  return out;
}

}  // namespace

SparseVec top_k_abs(const float* x, size_t n, size_t k) {
  return select_top_k(Keyed<false>{x, n, nullptr}, k, n);
}

SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed) {
  GLUEFL_CHECK(allowed.size() == n);
  return select_top_k(Keyed<true>{x, n, &allowed}, k, allowed.count());
}

void scatter_add(const SparseVec& s, float scale, float* out) {
  for (size_t i = 0; i < s.idx.size(); ++i) {
    out[s.idx[i]] += scale * s.val[i];
  }
}

}  // namespace gluefl
