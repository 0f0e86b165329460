// AVX-512F kernels: the shared bodies of nn/simd_kernels.h over 16-float
// registers, with write masks for the column tails. This translation unit
// is compiled with -mavx512f (see src/nn/CMakeLists.txt) and must only be
// *called* after a runtime cpuid check — Avx512KernelOps() in kernels.cc
// guards that.
//
// Max, Sqrt and ReduceAdd avoid the stock _mm512_max_ps, _mm512_sqrt_ps and
// _mm512_reduce_add_ps: GCC 12 implements those over _mm512_undefined_ps
// and warns -Wmaybe-uninitialized. The fully-masked forms below compile to
// the same instructions and give the same bits.

#include "nn/kernels.h"

#if defined(LC_NN_KERNELS_AVX512)

#include <immintrin.h>

#include "nn/simd_kernels.h"

namespace lc {
namespace nn {
namespace {

struct Avx512 {
  using Reg = __m512;
  static constexpr int64_t kLanes = 16;
  static constexpr __mmask16 kAll = 0xFFFF;

  static Reg Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg Set1(float x) { return _mm512_set1_ps(x); }
  static Reg Zero() { return _mm512_setzero_ps(); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg Sub(Reg a, Reg b) { return _mm512_sub_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg Div(Reg a, Reg b) { return _mm512_div_ps(a, b); }
  static Reg Sqrt(Reg a) { return _mm512_mask_sqrt_ps(a, kAll, a); }
  static Reg Max(Reg a, Reg b) { return _mm512_mask_max_ps(a, kAll, a, b); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg KeepWherePositive(Reg gate, Reg v) {
    return _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(gate, Zero(), _CMP_GT_OQ),
                               v);
  }

  // _mm512_reduce_add_ps's halving tree: 256 -> 128 -> 64 -> 32 lanes.
  static float ReduceAdd(Reg v) {
    const __m512d d = _mm512_castps_pd(v);
    const __m256d zero = _mm256_setzero_pd();
    const __m256 s8 = _mm256_add_ps(
        _mm256_castpd_ps(_mm512_mask_extractf64x4_pd(zero, 0xF, d, 1)),
        _mm256_castpd_ps(_mm512_mask_extractf64x4_pd(zero, 0xF, d, 0)));
    const __m128 s4 = _mm_add_ps(_mm256_extractf128_ps(s8, 1),
                                 _mm256_extractf128_ps(s8, 0));
    const __m128 s2 = _mm_add_ps(s4, _mm_shuffle_ps(s4, s4, 0x4E));
    return _mm_cvtss_f32(s2) + _mm_cvtss_f32(_mm_shuffle_ps(s2, s2, 1));
  }

  static __mmask16 TailMask(int64_t rem) {
    return static_cast<__mmask16>((1u << rem) - 1u);
  }
  static Reg LoadTail(const float* p, int64_t rem) {
    return _mm512_maskz_loadu_ps(TailMask(rem), p);
  }
  static void StoreTail(float* p, int64_t rem, Reg v) {
    _mm512_mask_storeu_ps(p, TailMask(rem), v);
  }
};

}  // namespace

namespace internal {

const KernelOps* Avx512KernelOpsImpl() {
  return simd::SimdKernelOps<Avx512>();
}

}  // namespace internal
}  // namespace nn
}  // namespace lc

#endif  // LC_NN_KERNELS_AVX512
