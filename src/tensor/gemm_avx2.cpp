// AVX2 GEMM kernel: the tiled source of ops.cpp's portable kernel at 8
// floats per vector. This file alone is compiled with -mavx2 and
// -ffp-contract=off (CMake per-file flags; no -mfma, no global arch flag),
// and nothing here runs unless CPUID reports AVX2. Its output is
// bit-identical to the portable kernel's (DESIGN.md §7b).
#include <cstddef>

#include "tensor/gemm_kernels.h"

namespace gluefl::gemm::detail {

namespace {

constexpr int kVec = 8;
#include "tensor/gemm_tiles.inc"

}  // namespace

const Kernel kAvx2Kernel{"avx2", &tiled_nn, &tiled_nt, &tiled_tn};

}  // namespace gluefl::gemm::detail
