/**
 * @file
 * Micro-kernel bodies shared by the per-ISA translation units.
 *
 * Each kernels_*.cc defines DTC_SIMD_NS (a unique namespace) and one
 * DTC_SIMD_BACKEND_* macro, then includes this header; the per-ISA
 * code paths are selected with the preprocessor so every TU compiles
 * only the instructions its -m flags permit.  NOT a normal header —
 * no include guard, include it exactly once per backend TU.
 *
 * Contract (see simd.h): per output element, every backend performs
 * the scalar backend's exact FP32 sequence — separate multiply then
 * add in ascending-j order.  The TUs are compiled with
 * -ffp-contract=off, so the compiler cannot fuse them either.
 */
#include <cstdint>

#include "common/precision.h"
#include "engine/simd/simd.h"
#include "engine/simd/vec.h"

namespace dtc {
namespace engine {
namespace simd {
namespace DTC_SIMD_NS {

namespace {

void
axpy(float* __restrict c, const float* __restrict b, float v,
     int64_t n)
{
    int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_SCALAR)
    for (; j + 8 <= n; j += 8) {
        for (int64_t u = 0; u < 8; ++u)
            c[j + u] += v * b[j + u];
    }
#else
#if defined(DTC_SIMD_BACKEND_AVX512)
    const __m512 v16 = vec::set16(v);
    for (; j + 16 <= n; j += 16)
        vec::store16(c + j, vec::mulAdd16(vec::load16(c + j), v16,
                                          vec::load16(b + j)));
#endif
    // AVX2 main loop; under AVX-512 this is the 8..15 remainder step.
    const __m256 v8 = vec::set8(v);
    for (; j + 8 <= n; j += 8)
        vec::store8(c + j, vec::mulAdd8(vec::load8(c + j), v8,
                                        vec::load8(b + j)));
#endif
    for (; j < n; ++j)
        c[j] += v * b[j];
}

void
axpyPrefetch(float* c, const float* b, float v, int64_t n,
             const float* next_b)
{
    vec::prefetch(next_b, n);
    axpy(c, b, v, n);
}

void
axpyDouble(double* __restrict acc, const float* __restrict b,
           double v, int64_t n)
{
    int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_SCALAR)
    for (; j + 8 <= n; j += 8) {
        for (int64_t u = 0; u < 8; ++u)
            acc[j + u] += v * static_cast<double>(b[j + u]);
    }
#elif defined(DTC_SIMD_BACKEND_AVX512)
    const __m512d vd = _mm512_set1_pd(v);
    for (; j + 8 <= n; j += 8) {
        const __m512d bd = _mm512_cvtps_pd(_mm256_loadu_ps(b + j));
        _mm512_storeu_pd(
            acc + j, _mm512_add_pd(_mm512_loadu_pd(acc + j),
                                   _mm512_mul_pd(vd, bd)));
    }
#else
    const __m256d vd = _mm256_set1_pd(v);
    for (; j + 4 <= n; j += 4) {
        const __m256d bd = _mm256_cvtps_pd(_mm_loadu_ps(b + j));
        _mm256_storeu_pd(
            acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j),
                                   _mm256_mul_pd(vd, bd)));
    }
#endif
    for (; j < n; ++j)
        acc[j] += v * static_cast<double>(b[j]);
}

void
roundPanel(float* __restrict out, const float* __restrict in,
           int64_t n, Precision p)
{
#if defined(DTC_SIMD_BACKEND_SCALAR)
    for (int64_t i = 0; i < n; ++i)
        out[i] = roundToPrecision(in[i], p);
#else
    if (p == Precision::Fp32) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = in[i];
        return;
    }
    int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_AVX512)
#define DTC_SIMD_ROUND16(FN)                                          \
    for (; j + 16 <= n; j += 16)                                      \
        vec::store16(out + j, vec::FN(vec::load16(in + j)));
#else
#define DTC_SIMD_ROUND16(FN)
#endif
#define DTC_SIMD_ROUND_LOOP(FN16, FN8)                                \
    do {                                                              \
        DTC_SIMD_ROUND16(FN16)                                        \
        for (; j + 8 <= n; j += 8)                                    \
            vec::store8(out + j, vec::FN8(vec::load8(in + j)));       \
    } while (0)
    switch (p) {
      case Precision::Tf32:
        DTC_SIMD_ROUND_LOOP(roundTf32x16, roundTf32x8);
        break;
      case Precision::Bf16:
        DTC_SIMD_ROUND_LOOP(roundBf16x16, roundBf16x8);
        break;
      case Precision::Fp16:
        DTC_SIMD_ROUND_LOOP(roundFp16x16, roundFp16x8);
        break;
      case Precision::Fp32:
        break; // handled above
    }
#undef DTC_SIMD_ROUND_LOOP
#undef DTC_SIMD_ROUND16
    for (; j < n; ++j)
        out[j] = roundToPrecision(in[j], p);
#endif
}

} // namespace

/** The backend's dispatch table (see tables.h). */
Kernels
makeTable(Isa isa)
{
    return Kernels{isa, axpy, axpyPrefetch, axpyDouble, roundPanel};
}

} // namespace DTC_SIMD_NS
} // namespace simd
} // namespace engine
} // namespace dtc
