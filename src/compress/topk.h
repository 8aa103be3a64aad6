// Top-k-by-magnitude selection — the sparsification primitive shared by
// STC (client and server side) and GlueFL's unique-gradient component.
//
// Selection contract (DESIGN.md §4): entries rank by the key
// bits(x) & 0x7fffffff, which orders like |x| for every non-NaN value and
// gives +0 and -0 the same key. Equal keys go to the lower index. A NaN
// ranks by its bit pattern, above +-inf, so a diverged client's delta
// still selects deterministically. The result is fully determined by the
// input; indices come back in ascending order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bitmask.h"

namespace gluefl {

/// Sparse vector: parallel arrays of (ascending) indices and values.
struct SparseVec {
  std::vector<uint32_t> idx;
  std::vector<float> val;

  size_t nnz() const { return idx.size(); }
};

/// Selects the min(k, n) entries of x[0..n) with the largest key (see
/// above), ties toward the lower index.
SparseVec top_k_abs(const float* x, size_t n, size_t k);

/// Same, but only positions where `allowed.test(i)` may be selected
/// (used for GlueFL's top over the complement of the shared mask).
SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed);

/// out[idx[i]] += scale * val[i].
void scatter_add(const SparseVec& s, float scale, float* out);

}  // namespace gluefl
