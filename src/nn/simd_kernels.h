// The vector kernel bodies, written once over a width-parametric wrapper V
// and instantiated by kernels_avx2.cc (8 lanes) and kernels_avx512.cc
// (16 lanes). Include this header only from a translation unit compiled
// with the matching ISA flags.
//
// V provides the register type `Reg`, the lane count `kLanes`, and static
// ops: Load, Store, Set1, Zero, Add, Sub, Mul, Div, Sqrt, Max, Fma(a, b, c)
// = a * b + c, ReduceAdd, KeepWherePositive(gate, v) = (gate > 0 ? v : 0)
// per lane, and LoadTail(p, rem) / StoreTail(p, rem, v), which touch only
// the first `rem` (< kLanes) lanes and read zeros into the others. Column
// remainders go through the tail ops, so no kernel carries a scalar tail
// loop except adam_update (see there).
//
// Each backend defines V in an anonymous namespace: every instantiation
// below then has internal linkage, so no code compiled under one ISA flag
// can be merged with another translation unit's copy. For the same reason
// the bodies call no header-inline library function (std::fill, std::max,
// std::sqrt, ...), whose weak out-of-line copies an -O0 build would emit
// under the ISA flags and the linker could hand to the scalar backend.
//
// Numerics: every kernel except gemm_trans_b and adam_update accumulates
// each output element in the same order at any lane width (a masked FMA
// lane rounds like std::fmaf), so both instantiations give bit-identical
// results for them.

#ifndef LC_NN_SIMD_KERNELS_H_
#define LC_NN_SIMD_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "nn/kernels.h"

namespace lc {
namespace nn {
namespace simd {

// Load/store policy for one block of columns: a full vector, or the masked
// remainder of `rem` lanes. Lets one step body serve both.
template <class V, bool kTail>
struct Lanes {
  using Reg = typename V::Reg;
  int64_t rem = V::kLanes;

  Reg Load(const float* p) const {
    if constexpr (kTail) {
      return V::LoadTail(p, rem);
    } else {
      return V::Load(p);
    }
  }
  void Store(float* p, Reg v) const {
    if constexpr (kTail) {
      V::StoreTail(p, rem, v);
    } else {
      V::Store(p, v);
    }
  }
};

// Calls step(lanes, j) for each full vector of columns [j, j + kLanes) of
// [0, n), then once for the remainder with masked lanes. Forced inline: an
// out-of-line copy (Axpy has two callers) spills the step's captures to
// the stack, which made short axpy rows up to 1.8x slower.
template <class V, class Step>
[[gnu::always_inline]] inline void ForEachVector(int64_t n, Step step) {
  int64_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) step(Lanes<V, false>{}, j);
  if (j < n) step(Lanes<V, true>{n - j}, j);
}

// c[0, count) = 0 with memset rather than std::fill (see the top of this
// file); templated on V only so that it, too, has internal linkage.
template <class V>
void ZeroFill(float* c, int64_t count) {
  if (count > 0) std::memset(c, 0, static_cast<size_t>(count) * sizeof(float));
}

// C(R rows, kVecs vectors from column j) += sum_t a(r, t) * b_row(t), with
// b_row(t) = b_base + t * n and a(r, t) read as a_base[r * lda + t], or as
// a_base[t * lda + r] when kTransA. The unit stride is a template argument,
// not a runtime one, so both GEMMs compile with it known (at -O3, GCC had
// specialised only one of them, and gemm_trans_a ran ~1.2x slower). The
// reduction loop runs innermost over t so each output element accumulates
// in t-order.
template <class V, bool kTransA, int R, int kVecs, class L>
void AxpyStrip(L lanes, const float* a_base, int64_t lda, const float* b_base,
               float* c_base, int64_t t_len, int64_t n, int64_t j) {
  using Reg = typename V::Reg;
  Reg acc[R][kVecs];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = lanes.Load(c_base + r * n + j + v * V::kLanes);
    }
  }
  for (int64_t t = 0; t < t_len; ++t) {
    const float* b_row = b_base + t * n + j;
    Reg bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = lanes.Load(b_row + v * V::kLanes);
    for (int r = 0; r < R; ++r) {
      const Reg av =
          V::Set1(kTransA ? a_base[t * lda + r] : a_base[r * lda + t]);
      for (int v = 0; v < kVecs; ++v) acc[r][v] = V::Fma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      lanes.Store(c_base + r * n + j + v * V::kLanes, acc[r][v]);
    }
  }
}

// One register tile covers R rows x 2 vectors of columns, then 1 vector,
// then the remainder. Serves the GEMM (rows of A) and the transposed-A GEMM
// (columns of A).
template <class V, bool kTransA, int R>
void AxpyTile(const float* a_base, int64_t lda, const float* b_base,
              float* c_base, int64_t t_len, int64_t n) {
  int64_t j = 0;
  for (; j + 2 * V::kLanes <= n; j += 2 * V::kLanes) {
    AxpyStrip<V, kTransA, R, 2>(Lanes<V, false>{}, a_base, lda, b_base,
                                c_base, t_len, n, j);
  }
  ForEachVector<V>(n - j, [&](auto lanes, int64_t jj) {
    AxpyStrip<V, kTransA, R, 1>(lanes, a_base, lda, b_base, c_base, t_len, n,
                                j + jj);
  });
}

// Runs the R = 4 tile over `rows` rows, then the 1..3 leftover rows.
template <class V, bool kTransA>
void AxpyRows(int64_t rows, const float* a_base, int64_t lda,
              const float* b_base, float* c_base, int64_t t_len, int64_t n) {
  const int64_t row_step = kTransA ? 1 : lda;
  int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    AxpyTile<V, kTransA, 4>(a_base + i * row_step, lda, b_base, c_base + i * n,
                            t_len, n);
  }
  const float* a_rest = a_base + i * row_step;
  float* c_rest = c_base + i * n;
  switch (rows - i) {
    case 3:
      AxpyTile<V, kTransA, 3>(a_rest, lda, b_base, c_rest, t_len, n);
      return;
    case 2:
      AxpyTile<V, kTransA, 2>(a_rest, lda, b_base, c_rest, t_len, n);
      return;
    case 1:
      AxpyTile<V, kTransA, 1>(a_rest, lda, b_base, c_rest, t_len, n);
      return;
    default:
      return;
  }
}

template <class V>
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate) {
  if (!accumulate) ZeroFill<V>(c, m * n);
  AxpyRows<V, false>(m, a, /*lda=*/k, b, c, /*t_len=*/k, n);
}

template <class V>
void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  // C(k,n) = A(m,k)^T * B(m,n): same tile with A walked column-wise.
  if (!accumulate) ZeroFill<V>(c, k * n);
  AxpyRows<V, true>(k, a, /*lda=*/k, b, c, /*t_len=*/m, n);
}

// y += alpha * x; the building block of the sparse-A GEMM. Forced inline
// there, as DotTile is in gemm_trans_b: at -O3 GCC otherwise calls both
// out of line once per nonzero / per four outputs, which made the two
// kernels ~15% slower inside a training step.
template <class V>
[[gnu::always_inline]] inline void Axpy(const float* x, float alpha, float* y,
                                        int64_t n) {
  const typename V::Reg av = V::Set1(alpha);
  ForEachVector<V>(n, [&](auto lanes, int64_t i) {
    lanes.Store(y + i, V::Fma(av, lanes.Load(x + i), lanes.Load(y + i)));
  });
}

template <class V>
void GemmSparseA(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, bool accumulate) {
  // Skipping a zero term leaves the accumulator bit-identical (fma with a
  // zero multiplicand is the identity), so this stays in parity with the
  // dense kernels on the same input.
  if (!accumulate) ZeroFill<V>(c, m * n);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      Axpy<V>(b + p * n, a_ip, c_row, n);
    }
  }
}

// Calls f(0), ..., f(R - 1) as straight-line code. GCC 12 -O2 leaves a
// plain `for (r < R)` loop in DotTile rolled and keeps its accumulators on
// the stack; unrolled, they stay in registers (gemm_trans_b at n = 64 runs
// in about half the time).
template <int R, class F>
[[gnu::always_inline]] inline void Unroll(F f) {
  [&]<int... r>(std::integer_sequence<int, r...>) {
    (f(r), ...);
  }(std::make_integer_sequence<int, R>{});
}

// c_out[r] += dot(a_row, b_rows + r * n) over n for r < R, each dot product
// accumulated in kLanes lane partials (masked lanes contribute exact zeros)
// and tree-reduced at the end. Not written over ForEachVector: with acc
// captured by its step, GCC 12 -O2 keeps acc in memory.
template <class V, int R>
[[gnu::always_inline]] inline void DotTile(const float* a_row,
                                           const float* b_rows, float* c_out,
                                           int64_t n) {
  using Reg = typename V::Reg;
  Reg acc[R];
  Unroll<R>([&](int r) { acc[r] = V::Zero(); });
  int64_t j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    const Reg av = V::Load(a_row + j);
    Unroll<R>([&](int r) {
      acc[r] = V::Fma(av, V::Load(b_rows + r * n + j), acc[r]);
    });
  }
  if (j < n) {
    const Reg av = V::LoadTail(a_row + j, n - j);
    Unroll<R>([&](int r) {
      acc[r] = V::Fma(av, V::LoadTail(b_rows + r * n + j, n - j), acc[r]);
    });
  }
  Unroll<R>([&](int r) { c_out[r] += V::ReduceAdd(acc[r]); });
}

template <class V>
void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  // C(m,k) = A(m,n) * B(k,n)^T: rows of both operands are contiguous, so
  // each output element is a dot product over n — the one kernel here whose
  // rounding is reassociated relative to the scalar reference, and the one
  // GEMM whose bits depend on the lane count.
  if (!accumulate) ZeroFill<V>(c, m * k);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * n;
    float* c_row = c + i * k;
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) DotTile<V, 4>(a_row, b + p * n, c_row + p, n);
    for (; p < k; ++p) DotTile<V, 1>(a_row, b + p * n, c_row + p, n);
  }
}

template <class V>
void BiasAdd(const float* x, const float* bias, float* out, int64_t rows,
             int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    ForEachVector<V>(cols, [&](auto lanes, int64_t j) {
      lanes.Store(out_row + j,
                  V::Add(lanes.Load(x_row + j), lanes.Load(bias + j)));
    });
  }
}

template <class V>
void BiasRelu(const float* x, const float* bias, float* out, int64_t rows,
              int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    ForEachVector<V>(cols, [&](auto lanes, int64_t j) {
      const typename V::Reg sum =
          V::Add(lanes.Load(x_row + j), lanes.Load(bias + j));
      lanes.Store(out_row + j, V::Max(sum, V::Zero()));
    });
  }
}

template <class V>
void BiasReluGrad(const float* out, const float* dout, float* dx, float* db,
                  int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* out_row = out + i * cols;
    const float* dout_row = dout + i * cols;
    float* dx_row = dx == nullptr ? nullptr : dx + i * cols;
    ForEachVector<V>(cols, [&](auto lanes, int64_t j) {
      const typename V::Reg masked = V::KeepWherePositive(
          lanes.Load(out_row + j), lanes.Load(dout_row + j));
      if (dx_row != nullptr) {
        lanes.Store(dx_row + j, V::Add(lanes.Load(dx_row + j), masked));
      }
      if (db != nullptr) {
        lanes.Store(db + j, V::Add(lanes.Load(db + j), masked));
      }
    });
  }
}

template <class V>
void Relu(const float* x, float* out, int64_t n) {
  ForEachVector<V>(n, [&](auto lanes, int64_t i) {
    lanes.Store(out + i, V::Max(lanes.Load(x + i), V::Zero()));
  });
}

template <class V>
void ReluGrad(const float* out, const float* dout, float* dx, int64_t n) {
  ForEachVector<V>(n, [&](auto lanes, int64_t i) {
    const typename V::Reg masked =
        V::KeepWherePositive(lanes.Load(out + i), lanes.Load(dout + i));
    lanes.Store(dx + i, V::Add(lanes.Load(dx + i), masked));
  });
}

template <class V>
void Scale(const float* x, float alpha, float* out, int64_t n) {
  const typename V::Reg av = V::Set1(alpha);
  ForEachVector<V>(n, [&](auto lanes, int64_t i) {
    lanes.Store(out + i, V::Mul(av, lanes.Load(x + i)));
  });
}

template <class V>
void ColSumAcc(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    ForEachVector<V>(cols, [&](auto lanes, int64_t j) {
      lanes.Store(out + j, V::Add(lanes.Load(out + j), lanes.Load(x_row + j)));
    });
  }
}

template <class V>
void AdamUpdate(float* value, const float* grad, float* m, float* v,
                int64_t n, float beta1, float beta2, float learning_rate,
                float bias1, float bias2, float epsilon) {
  using Reg = typename V::Reg;
  const Reg b1 = V::Set1(beta1);
  const Reg b2 = V::Set1(beta2);
  const Reg one_minus_b1 = V::Set1(1.0f - beta1);
  const Reg one_minus_b2 = V::Set1(1.0f - beta2);
  const Reg inv1 = V::Set1(bias1);
  const Reg inv2 = V::Set1(bias2);
  const Reg lr = V::Set1(learning_rate);
  const Reg eps = V::Set1(epsilon);
  int64_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const Reg g = V::Load(grad + i);
    const Reg mv = V::Add(V::Mul(b1, V::Load(m + i)), V::Mul(one_minus_b1, g));
    const Reg vv = V::Add(V::Mul(b2, V::Load(v + i)),
                          V::Mul(one_minus_b2, V::Mul(g, g)));
    V::Store(m + i, mv);
    V::Store(v + i, vv);
    const Reg m_hat = V::Div(mv, inv1);
    const Reg v_hat = V::Div(vv, inv2);
    const Reg denom = V::Add(V::Sqrt(v_hat), eps);
    const Reg step = V::Div(V::Mul(lr, m_hat), denom);
    V::Store(value + i, V::Sub(V::Load(value + i), step));
  }
  // Scalar tail, deliberately not masked: it associates (1-b2)*g*g where
  // the vector body computes (1-b2)*(g*g), so the tail elements (and thus
  // the trained weights) depend on the lane count. Folding the tail into
  // the vector path would move every trained model.
  for (; i < n; ++i) {
    const float g = grad[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= learning_rate * m_hat / (__builtin_sqrtf(v_hat) + epsilon);
  }
}

// The kernel table for wrapper V, in KernelOps member order.
template <class V>
const KernelOps* SimdKernelOps() {
  static const KernelOps ops = {
      Gemm<V>,     GemmSparseA<V>, GemmTransA<V>,   GemmTransB<V>,
      BiasAdd<V>,  BiasRelu<V>,    BiasReluGrad<V>, Relu<V>,
      ReluGrad<V>, Axpy<V>,        Scale<V>,        ColSumAcc<V>,
      AdamUpdate<V>,
  };
  return &ops;
}

}  // namespace simd
}  // namespace nn
}  // namespace lc

#endif  // LC_NN_SIMD_KERNELS_H_
