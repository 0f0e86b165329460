// AVX2+FMA kernels: the shared bodies of nn/simd_kernels.h over 8-float
// registers. This translation unit is compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt) and must only be *called* after a runtime cpuid
// check — Avx2KernelOps() in kernels.cc guards that.

#include "nn/kernels.h"

#if defined(LC_NN_KERNELS_AVX2)

#include <immintrin.h>

#include "nn/simd_kernels.h"

namespace lc {
namespace nn {
namespace {

struct Avx2 {
  using Reg = __m256;
  static constexpr int64_t kLanes = 8;

  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg Set1(float x) { return _mm256_set1_ps(x); }
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg Div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
  static Reg Sqrt(Reg a) { return _mm256_sqrt_ps(a); }
  static Reg Max(Reg a, Reg b) { return _mm256_max_ps(a, b); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg KeepWherePositive(Reg gate, Reg v) {
    return _mm256_and_ps(_mm256_cmp_ps(gate, Zero(), _CMP_GT_OQ), v);
  }

  static float ReduceAdd(Reg v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum = _mm_add_ps(lo, hi);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
    return _mm_cvtss_f32(sum);
  }

  // The tails move the `rem` floats in 16-, 8- and 4-byte pieces rather
  // than with _mm256_maskload_ps/_mm256_maskstore_ps. A masked store cannot
  // forward to a later load of the same address, and the backward kernels
  // re-read what they just stored on every row (col_sum_acc and
  // bias_relu_grad accumulate into one bias-gradient row): on a 1-column
  // layer the masked forms made those kernels 2.5-5x slower than a scalar
  // tail. Masked stores are also microcoded on some AMD cores. The lanes
  // read and written are the same, so the bits are too.
  static Reg LoadTail(const float* p, int64_t rem) {
    if (rem < 4) return _mm256_zextps128_ps256(LoadPart(p, rem));
    return _mm256_set_m128(LoadPart(p + 4, rem - 4), _mm_loadu_ps(p));
  }
  static void StoreTail(float* p, int64_t rem, Reg v) {
    __m128 part = _mm256_castps256_ps128(v);
    if (rem >= 4) {
      _mm_storeu_ps(p, part);
      p += 4;
      rem -= 4;
      part = _mm256_extractf128_ps(v, 1);
    }
    StorePart(p, rem, part);
  }

  // The first `rem` (< 4) floats of p in the low lanes, zeros above.
  static __m128 LoadPart(const float* p, int64_t rem) {
    if (rem == 1) return _mm_load_ss(p);
    const __m128 zero = _mm_setzero_ps();
    if (rem == 0) return zero;
    const __m128 two = _mm_loadl_pi(zero, reinterpret_cast<const __m64*>(p));
    return rem == 2 ? two : _mm_movelh_ps(two, _mm_load_ss(p + 2));
  }
  static void StorePart(float* p, int64_t rem, __m128 v) {
    if (rem == 1) {
      _mm_store_ss(p, v);
    } else if (rem >= 2) {
      _mm_storel_pi(reinterpret_cast<__m64*>(p), v);
      if (rem == 3) _mm_store_ss(p + 2, _mm_movehl_ps(v, v));
    }
  }
};

}  // namespace

namespace internal {

const KernelOps* Avx2KernelOpsImpl() { return simd::SimdKernelOps<Avx2>(); }

}  // namespace internal
}  // namespace nn
}  // namespace lc

#endif  // LC_NN_KERNELS_AVX2
