/**
 * @file
 * AVX-512 backend: 16-wide __m512 main loops with one 8-wide __m256
 * step for the 8..15 remainder, then a scalar tail.  Compiled with
 * -mavx512f -mavx512dq -mavx512bw -mavx512vl -ffp-contract=off.
 */
#define DTC_SIMD_BACKEND_AVX512 1
#define DTC_SIMD_NS avx512_impl
#include "engine/simd/kernels_body.h"
#undef DTC_SIMD_NS
#undef DTC_SIMD_BACKEND_AVX512

#include "engine/simd/tables.h"

namespace dtc {
namespace engine {
namespace simd {
namespace detail {

const Kernels&
avx512Table()
{
    static const Kernels k = avx512_impl::makeTable(Isa::Avx512);
    return k;
}

} // namespace detail
} // namespace simd
} // namespace engine
} // namespace dtc
