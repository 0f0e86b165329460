// AVX-512F kernels. This translation unit is compiled with -mavx512f
// (see src/nn/CMakeLists.txt) and must only be *called* after a runtime
// cpuid check — Avx512KernelOps() in kernels.cc guards that.
//
// Numerics contract with the scalar backend (same as the AVX2 table): the
// axpy-structured kernels accumulate along their reduction dimension in
// the same element order as the scalar reference — the axpy/ikj
// formulation keeps the reduction sequential per output element regardless
// of lane width — so their only divergence is FMA rounding. Column
// remainders use AVX-512 write masks instead of scalar tails: a masked
// lane simply processes fewer output elements, which leaves the per-element
// accumulation order untouched. The exception is GemmTransBAvx512, whose
// dot products use 16 lane-parallel partial sums (tree reassociation). The
// parity tests pin both to within 1e-5 on activation-scaled inputs.

#include "nn/kernels.h"

#if defined(LC_NN_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace lc {
namespace nn {
namespace {

// Write mask for the trailing `n - j` (< 16) columns.
inline __mmask16 TailMask(int64_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

// C(R, n) += sum_t a(r, t) * b_row(t), with a(r, t) read as
// a_base[r * a_r_stride + t * a_t_stride] and b_row(t) = b_base + t * n.
// One register tile covers R rows x 32 columns (two zmm accumulators per
// row); the reduction loop runs innermost over t so each output element
// accumulates in t-order. Instantiated for the GEMM (rows of A) and the
// transposed-A GEMM (columns of A) — the two differ only in the strides.
template <int R>
void AxpyTile(const float* a_base, int64_t a_r_stride, int64_t a_t_stride,
              const float* b_base, float* c_base, int64_t t_len, int64_t n) {
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m512 acc0[R];
    __m512 acc1[R];
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm512_loadu_ps(c_base + r * n + j);
      acc1[r] = _mm512_loadu_ps(c_base + r * n + j + 16);
    }
    for (int64_t t = 0; t < t_len; ++t) {
      const float* b_row = b_base + t * n + j;
      const __m512 b0 = _mm512_loadu_ps(b_row);
      const __m512 b1 = _mm512_loadu_ps(b_row + 16);
      for (int r = 0; r < R; ++r) {
        const __m512 av =
            _mm512_set1_ps(a_base[r * a_r_stride + t * a_t_stride]);
        acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm512_storeu_ps(c_base + r * n + j, acc0[r]);
      _mm512_storeu_ps(c_base + r * n + j + 16, acc1[r]);
    }
  }
  for (; j + 16 <= n; j += 16) {
    __m512 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm512_loadu_ps(c_base + r * n + j);
    for (int64_t t = 0; t < t_len; ++t) {
      const __m512 bv = _mm512_loadu_ps(b_base + t * n + j);
      for (int r = 0; r < R; ++r) {
        const __m512 av =
            _mm512_set1_ps(a_base[r * a_r_stride + t * a_t_stride]);
        acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm512_storeu_ps(c_base + r * n + j, acc[r]);
  }
  if (j < n) {
    const __mmask16 tail = TailMask(n - j);
    __m512 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_maskz_loadu_ps(tail, c_base + r * n + j);
    }
    for (int64_t t = 0; t < t_len; ++t) {
      const __m512 bv = _mm512_maskz_loadu_ps(tail, b_base + t * n + j);
      for (int r = 0; r < R; ++r) {
        const __m512 av =
            _mm512_set1_ps(a_base[r * a_r_stride + t * a_t_stride]);
        acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm512_mask_storeu_ps(c_base + r * n + j, tail, acc[r]);
    }
  }
}

// Dispatches the 1..3 leftover rows of a 4-row blocking.
void AxpyTileRemainder(int64_t rows, const float* a_base, int64_t a_r_stride,
                       int64_t a_t_stride, const float* b_base, float* c_base,
                       int64_t t_len, int64_t n) {
  switch (rows) {
    case 3:
      AxpyTile<3>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 2:
      AxpyTile<2>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 1:
      AxpyTile<1>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    default:
      return;
  }
}

void GemmAvx512(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    AxpyTile<4>(a + i * k, /*a_r_stride=*/k, /*a_t_stride=*/1, b, c + i * n,
                /*t_len=*/k, n);
  }
  AxpyTileRemainder(m - i, a + i * k, k, 1, b, c + i * n, k, n);
}

void GemmTransAAvx512(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool accumulate) {
  // C(k,n) = A(m,k)^T * B(m,n): same tile with A walked column-wise.
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    AxpyTile<4>(a + p, /*a_r_stride=*/1, /*a_t_stride=*/k, b, c + p * n,
                /*t_len=*/m, n);
  }
  AxpyTileRemainder(k - p, a + p, 1, k, b, c + p * n, m, n);
}

// y += alpha * x, vectorized; the building block of the sparse-A GEMM.
void AxpyAvx512(const float* x, float alpha, float* y, int64_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 yv = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i), yv));
  }
  if (i < n) {
    const __mmask16 tail = TailMask(n - i);
    const __m512 yv = _mm512_maskz_loadu_ps(tail, y + i);
    const __m512 xv = _mm512_maskz_loadu_ps(tail, x + i);
    _mm512_mask_storeu_ps(y + i, tail, _mm512_fmadd_ps(av, xv, yv));
  }
}

void GemmSparseAAvx512(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool accumulate) {
  // Skipping a zero term leaves the accumulator bit-identical (fma with a
  // zero multiplicand is the identity), so this stays in parity with the
  // dense kernels on the same input.
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      AxpyAvx512(b + p * n, a_ip, c_row, n);
    }
  }
}

void GemmTransBAvx512(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool accumulate) {
  // C(m,k) = A(m,n) * B(k,n)^T: rows of both operands are contiguous, so
  // each output element is a dot product over n, accumulated in 16 lane
  // partials (masked lanes contribute exact zeros) and tree-reduced at the
  // end — the one kernel here whose rounding is reassociated relative to
  // the scalar reference.
  if (!accumulate) std::fill(c, c + m * k, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * n;
    float* c_row = c + i * k;
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
      __m512 acc[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(),
                       _mm512_setzero_ps(), _mm512_setzero_ps()};
      int64_t j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m512 av = _mm512_loadu_ps(a_row + j);
        for (int r = 0; r < 4; ++r) {
          acc[r] = _mm512_fmadd_ps(
              av, _mm512_loadu_ps(b + (p + r) * n + j), acc[r]);
        }
      }
      if (j < n) {
        const __mmask16 tail = TailMask(n - j);
        const __m512 av = _mm512_maskz_loadu_ps(tail, a_row + j);
        for (int r = 0; r < 4; ++r) {
          acc[r] = _mm512_fmadd_ps(
              av, _mm512_maskz_loadu_ps(tail, b + (p + r) * n + j), acc[r]);
        }
      }
      for (int r = 0; r < 4; ++r) {
        c_row[p + r] += _mm512_reduce_add_ps(acc[r]);
      }
    }
    for (; p < k; ++p) {
      const float* b_row = b + p * n;
      __m512 acc = _mm512_setzero_ps();
      int64_t j = 0;
      for (; j + 16 <= n; j += 16) {
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(a_row + j),
                              _mm512_loadu_ps(b_row + j), acc);
      }
      if (j < n) {
        const __mmask16 tail = TailMask(n - j);
        acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(tail, a_row + j),
                              _mm512_maskz_loadu_ps(tail, b_row + j), acc);
      }
      c_row[p] += _mm512_reduce_add_ps(acc);
    }
  }
}

void BiasAddAvx512(const float* x, const float* bias, float* out,
                   int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out_row + j,
                       _mm512_add_ps(_mm512_loadu_ps(x_row + j),
                                     _mm512_loadu_ps(bias + j)));
    }
    if (j < cols) {
      const __mmask16 tail = TailMask(cols - j);
      _mm512_mask_storeu_ps(
          out_row + j, tail,
          _mm512_add_ps(_mm512_maskz_loadu_ps(tail, x_row + j),
                        _mm512_maskz_loadu_ps(tail, bias + j)));
    }
  }
}

void BiasReluAvx512(const float* x, const float* bias, float* out,
                    int64_t rows, int64_t cols) {
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512 sum = _mm512_add_ps(_mm512_loadu_ps(x_row + j),
                                       _mm512_loadu_ps(bias + j));
      _mm512_storeu_ps(out_row + j, _mm512_max_ps(sum, zero));
    }
    if (j < cols) {
      const __mmask16 tail = TailMask(cols - j);
      const __m512 sum =
          _mm512_add_ps(_mm512_maskz_loadu_ps(tail, x_row + j),
                        _mm512_maskz_loadu_ps(tail, bias + j));
      _mm512_mask_storeu_ps(out_row + j, tail, _mm512_max_ps(sum, zero));
    }
  }
}

void BiasReluGradAvx512(const float* out, const float* dout, float* dx,
                        float* db, int64_t rows, int64_t cols) {
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t i = 0; i < rows; ++i) {
    const float* out_row = out + i * cols;
    const float* dout_row = dout + i * cols;
    float* dx_row = dx == nullptr ? nullptr : dx + i * cols;
    int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __mmask16 active = _mm512_cmp_ps_mask(
          _mm512_loadu_ps(out_row + j), zero, _CMP_GT_OQ);
      const __m512 masked =
          _mm512_maskz_loadu_ps(active, dout_row + j);
      if (dx_row != nullptr) {
        _mm512_storeu_ps(
            dx_row + j, _mm512_add_ps(_mm512_loadu_ps(dx_row + j), masked));
      }
      if (db != nullptr) {
        _mm512_storeu_ps(db + j,
                         _mm512_add_ps(_mm512_loadu_ps(db + j), masked));
      }
    }
    if (j < cols) {
      const __mmask16 tail = TailMask(cols - j);
      const __mmask16 active =
          _mm512_mask_cmp_ps_mask(tail, _mm512_maskz_loadu_ps(tail, out_row + j),
                                  zero, _CMP_GT_OQ);
      const __m512 masked = _mm512_maskz_loadu_ps(active, dout_row + j);
      if (dx_row != nullptr) {
        _mm512_mask_storeu_ps(
            dx_row + j, tail,
            _mm512_add_ps(_mm512_maskz_loadu_ps(tail, dx_row + j), masked));
      }
      if (db != nullptr) {
        _mm512_mask_storeu_ps(
            db + j, tail,
            _mm512_add_ps(_mm512_maskz_loadu_ps(tail, db + j), masked));
      }
    }
  }
}

void ReluAvx512(const float* x, float* out, int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_max_ps(_mm512_loadu_ps(x + i), zero));
  }
  if (i < n) {
    const __mmask16 tail = TailMask(n - i);
    _mm512_mask_storeu_ps(
        out + i, tail,
        _mm512_max_ps(_mm512_maskz_loadu_ps(tail, x + i), zero));
  }
}

void ReluGradAvx512(const float* out, const float* dout, float* dx,
                    int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 active =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(out + i), zero, _CMP_GT_OQ);
    const __m512 masked = _mm512_maskz_loadu_ps(active, dout + i);
    _mm512_storeu_ps(dx + i, _mm512_add_ps(_mm512_loadu_ps(dx + i), masked));
  }
  if (i < n) {
    const __mmask16 tail = TailMask(n - i);
    const __mmask16 active = _mm512_mask_cmp_ps_mask(
        tail, _mm512_maskz_loadu_ps(tail, out + i), zero, _CMP_GT_OQ);
    const __m512 masked = _mm512_maskz_loadu_ps(active, dout + i);
    _mm512_mask_storeu_ps(
        dx + i, tail,
        _mm512_add_ps(_mm512_maskz_loadu_ps(tail, dx + i), masked));
  }
}

void ScaleAvx512(const float* x, float alpha, float* out, int64_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(av, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 tail = TailMask(n - i);
    _mm512_mask_storeu_ps(
        out + i, tail, _mm512_mul_ps(av, _mm512_maskz_loadu_ps(tail, x + i)));
  }
}

void ColSumAccAvx512(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out + j, _mm512_add_ps(_mm512_loadu_ps(out + j),
                                              _mm512_loadu_ps(x_row + j)));
    }
    if (j < cols) {
      const __mmask16 tail = TailMask(cols - j);
      _mm512_mask_storeu_ps(
          out + j, tail,
          _mm512_add_ps(_mm512_maskz_loadu_ps(tail, out + j),
                        _mm512_maskz_loadu_ps(tail, x_row + j)));
    }
  }
}

void AdamUpdateAvx512(float* value, const float* grad, float* m, float* v,
                      int64_t n, float beta1, float beta2,
                      float learning_rate, float bias1, float bias2,
                      float epsilon) {
  const __m512 b1 = _mm512_set1_ps(beta1);
  const __m512 b2 = _mm512_set1_ps(beta2);
  const __m512 one_minus_b1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 one_minus_b2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 inv1 = _mm512_set1_ps(bias1);
  const __m512 inv2 = _mm512_set1_ps(bias2);
  const __m512 lr = _mm512_set1_ps(learning_rate);
  const __m512 eps = _mm512_set1_ps(epsilon);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 g = _mm512_loadu_ps(grad + i);
    const __m512 mv = _mm512_add_ps(_mm512_mul_ps(b1, _mm512_loadu_ps(m + i)),
                                    _mm512_mul_ps(one_minus_b1, g));
    const __m512 vv =
        _mm512_add_ps(_mm512_mul_ps(b2, _mm512_loadu_ps(v + i)),
                      _mm512_mul_ps(one_minus_b2, _mm512_mul_ps(g, g)));
    _mm512_storeu_ps(m + i, mv);
    _mm512_storeu_ps(v + i, vv);
    const __m512 m_hat = _mm512_div_ps(mv, inv1);
    const __m512 v_hat = _mm512_div_ps(vv, inv2);
    const __m512 denom = _mm512_add_ps(_mm512_sqrt_ps(v_hat), eps);
    const __m512 step = _mm512_div_ps(_mm512_mul_ps(lr, m_hat), denom);
    _mm512_storeu_ps(value + i,
                     _mm512_sub_ps(_mm512_loadu_ps(value + i), step));
  }
  for (; i < n; ++i) {
    const float g = grad[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

}  // namespace

namespace internal {

const KernelOps* Avx512KernelOpsImpl() {
  static const KernelOps ops = {
      GemmAvx512,     GemmSparseAAvx512, GemmTransAAvx512, GemmTransBAvx512,
      BiasAddAvx512,  BiasReluAvx512,    BiasReluGradAvx512,
      ReluAvx512,     ReluGradAvx512,    AxpyAvx512,
      ScaleAvx512,    ColSumAccAvx512,   AdamUpdateAvx512,
  };
  return &ops;
}

}  // namespace internal
}  // namespace nn
}  // namespace lc

#endif  // LC_NN_KERNELS_AVX512
