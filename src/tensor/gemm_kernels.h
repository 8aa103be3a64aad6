// Runtime-dispatched GEMM kernels behind gemm_nn / gemm_nt / gemm_tn
// (ops.h; DESIGN.md §7b).
//
// Two kernels exist, both built from one register-tiled source
// (gemm_tiles.inc):
//
//   portable  compiled for the baseline ISA of the build (4-float vectors),
//             always present.
//   avx2      the same source compiled with -mavx2 (8-float vectors),
//             x86-64 builds only, used when CPUID reports AVX2.
//
// Both are BIT-IDENTICAL to the plain loops that define each GEMM (kept
// as the oracle in tests/test_tensor.cpp): every output adds its products
// in the same order with separate IEEE multiplies and adds, and the
// kernel translation units are compiled with -ffp-contract=off and no
// -mfma, so nothing can fuse. Only the number of independent outputs in
// flight differs.
//
// Dispatch: active_kernel() resolves once per process to the widest
// kernel the CPU supports. force_kernel() is the test seam that runs
// either kernel in-process; there is no user-facing knob, because the
// kernels cannot differ in output.
#pragma once

namespace gluefl::gemm {

enum class KernelKind { kPortable = 0, kAvx2 = 1 };

using GemmFn = void (*)(const float* a, const float* b, float* c, int m,
                        int x, int y, bool accumulate);

struct Kernel {
  const char* name;
  GemmFn nn;  // (a, b, c, m, k, n, accumulate) as ops.h gemm_nn
  GemmFn nt;  // (a, b, c, m, n, k, accumulate) as ops.h gemm_nt
  GemmFn tn;  // (a, b, c, m, k, n, accumulate) as ops.h gemm_tn
};

/// True when `kind` is compiled into this build AND the running CPU has
/// the required ISA. kPortable is always supported.
bool kernel_supported(KernelKind kind);

/// The kernel table entry for `kind`; CheckError when unsupported.
const Kernel& kernel(KernelKind kind);

/// The process-wide kernel, resolved on first call to the widest
/// supported one.
const Kernel& active_kernel();

/// The KernelKind of active_kernel(), so a test can restore it.
KernelKind active_kernel_kind();

/// Replaces the active kernel in-process (tests); CheckError when `kind`
/// is unsupported.
void force_kernel(KernelKind kind);

namespace detail {
// Defined by gemm_avx2.cpp on x86-64 builds; the registry only references
// it when GLUEFL_NN_SIMD says it exists.
extern const Kernel kAvx2Kernel;
}  // namespace detail

}  // namespace gluefl::gemm
