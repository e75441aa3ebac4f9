// AVX2 micro-kernel variants, bit-exact with the scalar TU.
//
// Exactness rules (enforced by tests/test_kernels.cpp):
//   * separate _mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps —
//     an FMA rounds once where scalar mul+add rounds twice, so FMA
//     results differ in the last ulp. The TU compiles with
//     -ffp-contract=off so the compiler cannot re-contract the pair
//     (it is built with -mfma only so the *probe* can distinguish
//     hosts; no FMA instruction is ever emitted from these sources).
//   * every output element accumulates its k terms in the same
//     ascending order as the scalar kernel, 8 independent lanes at a
//     time; lane independence keeps per-element order unchanged.
//   * the zero-skip conditions match the scalar kernels exactly
//     (micro_* skip all-zero A columns), so even Inf/NaN propagation is
//     identical.
//
// The whole TU compiles away to an empty registration on non-x86
// targets; dispatch then stays scalar.
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels_registration.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/activation_math.hpp"

namespace tagnn::kernels {
namespace {

constexpr std::size_t kTileCols = 16;  // matches the scalar tile width

// o[j] += a * b[j] over one 8-lane chunk, without FMA contraction.
inline __m256 madd(__m256 acc, __m256 a, __m256 b) {
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

// Accumulate-mode kernels list their non-skipped k columns once per
// call, then walk the panel kTileCols columns per pass over that list.
// The list lives on the stack in chunks of kKeepChunk columns, so a
// caller's GemmBlocking::kc of any size needs no heap; chunks ascend
// and each element folds its kept terms in ascending k, exactly as the
// scalar kernel does. kKeepChunk matches the default kc, so default
// blocking takes one chunk per call.
constexpr std::size_t kKeepChunk = 512;

void micro_1row(const float* arow, const float* packed, std::size_t kcb,
                std::size_t ncb, float* crow) {
  std::uint32_t keep[kKeepChunk];
  for (std::size_t k0 = 0; k0 < kcb; k0 += kKeepChunk) {
    const std::size_t k1 = std::min(kcb, k0 + kKeepChunk);
    std::size_t nk = 0;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      keep[nk] = static_cast<std::uint32_t>(kk);
      nk += arow[kk] == 0.0f ? 0 : 1;  // same skip test as the scalar TU
    }
    if (nk == 0) continue;
    std::size_t j = 0;
    for (; j + kTileCols <= ncb; j += kTileCols) {
      __m256 sa = _mm256_loadu_ps(crow + j);
      __m256 sb = _mm256_loadu_ps(crow + j + 8);
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        const float* bk = packed + kk * ncb + j;
        const __m256 x = _mm256_set1_ps(arow[kk]);
        sa = madd(sa, x, _mm256_loadu_ps(bk));
        sb = madd(sb, x, _mm256_loadu_ps(bk + 8));
      }
      _mm256_storeu_ps(crow + j, sa);
      _mm256_storeu_ps(crow + j + 8, sb);
    }
    if (j + 8 <= ncb) {
      __m256 s = _mm256_loadu_ps(crow + j);
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        s = madd(s, _mm256_set1_ps(arow[kk]),
                 _mm256_loadu_ps(packed + kk * ncb + j));
      }
      _mm256_storeu_ps(crow + j, s);
      j += 8;
    }
    for (; j < ncb; ++j) {
      float s = crow[j];
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        s += arow[kk] * packed[kk * ncb + j];
      }
      crow[j] = s;
    }
  }
}

void micro_4row(const float* a0, const float* a1, const float* a2,
                const float* a3, const float* packed, std::size_t kcb,
                std::size_t ncb, float* c0, float* c1, float* c2,
                float* c3) {
  std::uint32_t keep[kKeepChunk];
  for (std::size_t k0 = 0; k0 < kcb; k0 += kKeepChunk) {
    const std::size_t k1 = std::min(kcb, k0 + kKeepChunk);
    std::size_t nk = 0;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      // Skipped only when all four rows hold a zero, as in the scalar TU.
      const bool skip = a0[kk] == 0.0f && a1[kk] == 0.0f &&
                        a2[kk] == 0.0f && a3[kk] == 0.0f;
      keep[nk] = static_cast<std::uint32_t>(kk);
      nk += skip ? 0 : 1;
    }
    if (nk == 0) continue;
    std::size_t j = 0;
    for (; j + kTileCols <= ncb; j += kTileCols) {
      // 4 rows x 16 columns = 8 ymm accumulators across the kept list.
      __m256 s0a = _mm256_loadu_ps(c0 + j), s0b = _mm256_loadu_ps(c0 + j + 8);
      __m256 s1a = _mm256_loadu_ps(c1 + j), s1b = _mm256_loadu_ps(c1 + j + 8);
      __m256 s2a = _mm256_loadu_ps(c2 + j), s2b = _mm256_loadu_ps(c2 + j + 8);
      __m256 s3a = _mm256_loadu_ps(c3 + j), s3b = _mm256_loadu_ps(c3 + j + 8);
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        const float* bk = packed + kk * ncb + j;
        const __m256 ba = _mm256_loadu_ps(bk);
        const __m256 bb = _mm256_loadu_ps(bk + 8);
        const __m256 x0 = _mm256_set1_ps(a0[kk]);
        const __m256 x1 = _mm256_set1_ps(a1[kk]);
        const __m256 x2 = _mm256_set1_ps(a2[kk]);
        const __m256 x3 = _mm256_set1_ps(a3[kk]);
        s0a = madd(s0a, x0, ba);
        s0b = madd(s0b, x0, bb);
        s1a = madd(s1a, x1, ba);
        s1b = madd(s1b, x1, bb);
        s2a = madd(s2a, x2, ba);
        s2b = madd(s2b, x2, bb);
        s3a = madd(s3a, x3, ba);
        s3b = madd(s3b, x3, bb);
      }
      _mm256_storeu_ps(c0 + j, s0a);
      _mm256_storeu_ps(c0 + j + 8, s0b);
      _mm256_storeu_ps(c1 + j, s1a);
      _mm256_storeu_ps(c1 + j + 8, s1b);
      _mm256_storeu_ps(c2 + j, s2a);
      _mm256_storeu_ps(c2 + j + 8, s2b);
      _mm256_storeu_ps(c3 + j, s3a);
      _mm256_storeu_ps(c3 + j + 8, s3b);
    }
    if (j + 8 <= ncb) {
      __m256 s0 = _mm256_loadu_ps(c0 + j), s1 = _mm256_loadu_ps(c1 + j);
      __m256 s2 = _mm256_loadu_ps(c2 + j), s3 = _mm256_loadu_ps(c3 + j);
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        const __m256 b = _mm256_loadu_ps(packed + kk * ncb + j);
        s0 = madd(s0, _mm256_set1_ps(a0[kk]), b);
        s1 = madd(s1, _mm256_set1_ps(a1[kk]), b);
        s2 = madd(s2, _mm256_set1_ps(a2[kk]), b);
        s3 = madd(s3, _mm256_set1_ps(a3[kk]), b);
      }
      _mm256_storeu_ps(c0 + j, s0);
      _mm256_storeu_ps(c1 + j, s1);
      _mm256_storeu_ps(c2 + j, s2);
      _mm256_storeu_ps(c3 + j, s3);
      j += 8;
    }
    for (; j < ncb; ++j) {
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (std::size_t t = 0; t < nk; ++t) {
        const std::size_t kk = keep[t];
        const float bj = packed[kk * ncb + j];
        s0 += a0[kk] * bj;
        s1 += a1[kk] * bj;
        s2 += a2[kk] * bj;
        s3 += a3[kk] * bj;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
}

void tile_1row(const float* arow, const float* packed, std::size_t kcb,
               std::size_t stride, std::size_t width, float* crow) {
  std::size_t j = 0;
  for (; j + 8 <= width; j += 8) {
    __m256 t = _mm256_setzero_ps();
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      t = madd(t, _mm256_set1_ps(arow[kk]),
               _mm256_loadu_ps(bp + kk * stride));
    }
    _mm256_storeu_ps(crow + j, t);
  }
  for (; j < width; ++j) {
    float t = 0.0f;
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      t += arow[kk] * bp[kk * stride];
    }
    crow[j] = t;
  }
}

void tile_4row(const float* a0, const float* a1, const float* a2,
               const float* a3, const float* packed, std::size_t kcb,
               std::size_t ncb, float* c0, float* c1, float* c2, float* c3) {
  std::size_t j = 0;
  for (; j + kTileCols <= ncb; j += kTileCols) {
    // 4 rows x 16 columns = 8 ymm accumulators held across the k loop.
    __m256 t0a = _mm256_setzero_ps(), t0b = _mm256_setzero_ps();
    __m256 t1a = _mm256_setzero_ps(), t1b = _mm256_setzero_ps();
    __m256 t2a = _mm256_setzero_ps(), t2b = _mm256_setzero_ps();
    __m256 t3a = _mm256_setzero_ps(), t3b = _mm256_setzero_ps();
    const float* bp = packed + j;
    for (std::size_t kk = 0; kk < kcb; ++kk) {
      const float* bk = bp + kk * ncb;
      const __m256 ba = _mm256_loadu_ps(bk);
      const __m256 bb = _mm256_loadu_ps(bk + 8);
      const __m256 x0 = _mm256_set1_ps(a0[kk]);
      const __m256 x1 = _mm256_set1_ps(a1[kk]);
      const __m256 x2 = _mm256_set1_ps(a2[kk]);
      const __m256 x3 = _mm256_set1_ps(a3[kk]);
      t0a = madd(t0a, x0, ba);
      t0b = madd(t0b, x0, bb);
      t1a = madd(t1a, x1, ba);
      t1b = madd(t1b, x1, bb);
      t2a = madd(t2a, x2, ba);
      t2b = madd(t2b, x2, bb);
      t3a = madd(t3a, x3, ba);
      t3b = madd(t3b, x3, bb);
    }
    _mm256_storeu_ps(c0 + j, t0a);
    _mm256_storeu_ps(c0 + j + 8, t0b);
    _mm256_storeu_ps(c1 + j, t1a);
    _mm256_storeu_ps(c1 + j + 8, t1b);
    _mm256_storeu_ps(c2 + j, t2a);
    _mm256_storeu_ps(c2 + j + 8, t2b);
    _mm256_storeu_ps(c3 + j, t3a);
    _mm256_storeu_ps(c3 + j + 8, t3b);
  }
  if (j < ncb) {
    tile_1row(a0, packed + j, kcb, ncb, ncb - j, c0 + j);
    tile_1row(a1, packed + j, kcb, ncb, ncb - j, c1 + j);
    tile_1row(a2, packed + j, kcb, ncb, ncb - j, c2 + j);
    tile_1row(a3, packed + j, kcb, ncb, ncb - j, c3 + j);
  }
}

// ---- spmm row primitives ----

void row_add(const float* ra, std::size_t d, float* o) {
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(
        o + j, _mm256_add_ps(_mm256_loadu_ps(o + j), _mm256_loadu_ps(ra + j)));
  }
  for (; j < d; ++j) o[j] += ra[j];
}

void row_add2(const float* ra, const float* rb, std::size_t d, float* o) {
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 s =
        _mm256_add_ps(_mm256_loadu_ps(o + j), _mm256_loadu_ps(ra + j));
    _mm256_storeu_ps(o + j, _mm256_add_ps(s, _mm256_loadu_ps(rb + j)));
  }
  for (; j < d; ++j) o[j] = (o[j] + ra[j]) + rb[j];
}

void row_scale(float s, std::size_t d, float* o) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(o + j, _mm256_mul_ps(_mm256_loadu_ps(o + j), vs));
  }
  for (; j < d; ++j) o[j] *= s;
}

// ---- vector kernels ----

void axpy(const float* x, float alpha, std::size_t n, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     madd(_mm256_loadu_ps(y + i), va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

// max(x, 0) with the (x > 0) ? x : 0 operand order, so NaN and -0.0
// behave exactly as the scalar kernel.
void relu(float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

// 8-lane mirror of detail::exp_approx: every operation corresponds 1:1
// (min/max clamp, nearest-even round, mul+add polynomial — no FMA), so
// each lane rounds exactly as the scalar function does.
inline __m256 exp8(__m256 x) {
  using namespace detail;
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  p = _mm256_mul_ps(p, r2);
  p = _mm256_add_ps(p, r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(e));
}

void sigmoid_n(const float* x, std::size_t n, float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e =
        exp8(_mm256_sub_ps(_mm256_setzero_ps(), _mm256_loadu_ps(x + i)));
    _mm256_storeu_ps(out + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) out[i] = detail::sigmoid_approx(x[i]);
}

void tanh_n(const float* x, std::size_t n, float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp8(_mm256_mul_ps(_mm256_loadu_ps(x + i), two));
    _mm256_storeu_ps(
        out + i,
        _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one))));
  }
  for (; i < n; ++i) out[i] = detail::tanh_approx(x[i]);
}

}  // namespace

// tagnn-accum-order: ascending-k
// Same per-element accumulation order as the scalar kernels: k terms in
// ascending index order, lanes independent (tagnn_lint cross-checks
// this tag against every other registering TU).
void register_avx2_kernels(KernelRegistry& r) {
  GemmMicroKernels gemm;
  gemm.micro_1row = micro_1row;
  gemm.micro_4row = micro_4row;
  gemm.tile_1row = tile_1row;
  gemm.tile_4row = tile_4row;
  r.register_gemm("avx2", Isa::kAvx2, /*priority=*/10, gemm);

  SpmmMicroKernels spmm;
  spmm.row_add = row_add;
  spmm.row_add2 = row_add2;
  spmm.row_scale = row_scale;
  r.register_spmm("avx2", Isa::kAvx2, /*priority=*/10, spmm);

  VecKernels vec;
  vec.axpy = axpy;
  vec.relu = relu;
  vec.sigmoid_n = sigmoid_n;
  vec.tanh_n = tanh_n;
  r.register_vec("avx2", Isa::kAvx2, /*priority=*/10, vec);
}

}  // namespace tagnn::kernels

#else  // !defined(__AVX2__)

namespace tagnn::kernels {

void register_avx2_kernels(KernelRegistry&) {}

}  // namespace tagnn::kernels

#endif
