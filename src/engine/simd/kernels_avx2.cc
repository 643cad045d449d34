/**
 * @file
 * AVX2 backend: 8-wide __m256 micro-kernels.  Compiled with
 * -mavx2 -ffp-contract=off (see src/CMakeLists.txt) — the contract
 * flag is load-bearing: it stops the compiler from fusing the
 * separate multiply and add into an FMA, which would change low-order
 * bits versus the scalar backend.
 */
#define DTC_SIMD_BACKEND_AVX2 1
#define DTC_SIMD_NS avx2_impl
#include "engine/simd/kernels_body.h"
#undef DTC_SIMD_NS
#undef DTC_SIMD_BACKEND_AVX2

#include "engine/simd/tables.h"

namespace dtc {
namespace engine {
namespace simd {
namespace detail {

const Kernels&
avx2Table()
{
    static const Kernels k = avx2_impl::makeTable(Isa::Avx2);
    return k;
}

} // namespace detail
} // namespace simd
} // namespace engine
} // namespace dtc
