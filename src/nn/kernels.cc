#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/env.h"

namespace lc {
namespace nn {

namespace {

// Scalar reference kernels. The GEMM family uses the axpy (ikj) formulation:
// the reduction index is the middle loop, so every output element accumulates
// its terms in the same order as the vectorized backend — parity between
// backends is then limited to FMA rounding, not reassociation.

void GemmScalar(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    // Reduction unrolled 4x with strictly sequential adds per element: the
    // rounding (and thus backend parity) is identical to the plain loop,
    // but each c_row element is loaded/stored once per four terms.
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = a_row[p];
      const float a1 = a_row[p + 1];
      const float a2 = a_row[p + 2];
      const float a3 = a_row[p + 3];
      const float* b0 = b + p * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (int64_t j = 0; j < n; ++j) {
        float value = c_row[j];
        value += a0 * b0[j];
        value += a1 * b1[j];
        value += a2 * b2[j];
        value += a3 * b3[j];
        c_row[j] = value;
      }
    }
    for (; p < k; ++p) {
      const float a_ip = a_row[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

void GemmSparseAScalar(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;  // One-hot / bitmap inputs are mostly zero.
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

void GemmTransAScalar(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool accumulate) {
  // Reduction (over m) unrolled 4x; adds stay sequential per element, so
  // rounding matches the plain loop (see GemmScalar).
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    const float* b0 = b + i * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (int64_t p = 0; p < k; ++p) {
      float* c_row = c + p * n;
      const float w0 = a0[p];
      const float w1 = a1[p];
      const float w2 = a2[p];
      const float w3 = a3[p];
      for (int64_t j = 0; j < n; ++j) {
        float value = c_row[j];
        value += w0 * b0[j];
        value += w1 * b1[j];
        value += w2 * b2[j];
        value += w3 * b3[j];
        c_row[j] = value;
      }
    }
  }
  for (; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      float* c_row = c + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

void GemmTransBScalar(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * k, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * n;
    float* c_row = c + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float* b_row = b + p * n;
      float dot = 0.0f;
      for (int64_t j = 0; j < n; ++j) dot += a_row[j] * b_row[j];
      c_row[p] += dot;
    }
  }
}

void BiasAddScalar(const float* x, const float* bias, float* out,
                   int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    for (int64_t j = 0; j < cols; ++j) out_row[j] = x_row[j] + bias[j];
  }
}

void BiasReluScalar(const float* x, const float* bias, float* out,
                    int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      out_row[j] = std::max(x_row[j] + bias[j], 0.0f);
    }
  }
}

void BiasReluGradScalar(const float* out, const float* dout, float* dx,
                        float* db, int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* out_row = out + i * cols;
    const float* dout_row = dout + i * cols;
    float* dx_row = dx == nullptr ? nullptr : dx + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      if (out_row[j] <= 0.0f) continue;
      if (dx_row != nullptr) dx_row[j] += dout_row[j];
      if (db != nullptr) db[j] += dout_row[j];
    }
  }
}

void ReluScalar(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::max(x[i], 0.0f);
}

void ReluGradScalar(const float* out, const float* dout, float* dx,
                    int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (out[i] > 0.0f) dx[i] += dout[i];
  }
}

void AxpyScalar(const float* x, float alpha, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(const float* x, float alpha, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = alpha * x[i];
}

void ColSumAccScalar(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    for (int64_t j = 0; j < cols; ++j) out[j] += x_row[j];
  }
}

void AdamUpdateScalar(float* value, const float* grad, float* m, float* v,
                      int64_t n, float beta1, float beta2,
                      float learning_rate, float bias1, float bias2,
                      float epsilon) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = grad[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

struct ActiveKernels {
  const KernelOps* ops;
  KernelBackend backend;
};

ActiveKernels ResolveFromEnv() {
  const std::string pick = GetEnvString("LC_NN_BACKEND", "auto");
  if (pick == "scalar") {
    return {&ScalarKernelOps(), KernelBackend::kScalar};
  }
  const KernelOps* avx2 = Avx2KernelOps();
  if (pick == "avx2") {
    LC_CHECK(avx2 != nullptr)
        << "LC_NN_BACKEND=avx2 but AVX2 kernels are unavailable "
           "(not compiled in, or the CPU lacks AVX2/FMA)";
    return {avx2, KernelBackend::kAvx2};
  }
  const KernelOps* avx512 = Avx512KernelOps();
  if (pick == "avx512") {
    LC_CHECK(avx512 != nullptr)
        << "LC_NN_BACKEND=avx512 but AVX-512 kernels are unavailable "
           "(not compiled in, or the CPU lacks AVX512F)";
    return {avx512, KernelBackend::kAvx512};
  }
  // "auto" (and anything unrecognized): best available.
  if (avx512 != nullptr) return {avx512, KernelBackend::kAvx512};
  if (avx2 != nullptr) return {avx2, KernelBackend::kAvx2};
  return {&ScalarKernelOps(), KernelBackend::kScalar};
}

ActiveKernels& Active() {
  static ActiveKernels active = ResolveFromEnv();
  return active;
}

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const KernelOps& ScalarKernelOps() {
  static const KernelOps ops = {
      GemmScalar,     GemmSparseAScalar, GemmTransAScalar, GemmTransBScalar,
      BiasAddScalar,  BiasReluScalar,    BiasReluGradScalar,
      ReluScalar,     ReluGradScalar,    AxpyScalar,
      ScaleScalar,    ColSumAccScalar,   AdamUpdateScalar,
  };
  return ops;
}

const KernelOps* Avx2KernelOps() {
#if defined(LC_NN_KERNELS_AVX2)
  static const KernelOps* ops =
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
          ? internal::Avx2KernelOpsImpl()
          : nullptr;
  return ops;
#else
  return nullptr;
#endif
}

const KernelOps* Avx512KernelOps() {
#if defined(LC_NN_KERNELS_AVX512)
  static const KernelOps* ops = __builtin_cpu_supports("avx512f")
                                    ? internal::Avx512KernelOpsImpl()
                                    : nullptr;
  return ops;
#else
  return nullptr;
#endif
}

const KernelOps& Ops() { return *Active().ops; }

KernelBackend ActiveKernelBackend() { return Active().backend; }

void SetKernelBackend(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      Active() = {&ScalarKernelOps(), KernelBackend::kScalar};
      return;
    case KernelBackend::kAvx2: {
      const KernelOps* avx2 = Avx2KernelOps();
      LC_CHECK(avx2 != nullptr) << "AVX2 kernels unavailable on this "
                                   "build/CPU";
      Active() = {avx2, KernelBackend::kAvx2};
      return;
    }
    case KernelBackend::kAvx512: {
      const KernelOps* avx512 = Avx512KernelOps();
      LC_CHECK(avx512 != nullptr) << "AVX-512 kernels unavailable on this "
                                     "build/CPU";
      Active() = {avx512, KernelBackend::kAvx512};
      return;
    }
  }
  LC_FATAL() << "unknown kernel backend";
}

}  // namespace nn
}  // namespace lc
