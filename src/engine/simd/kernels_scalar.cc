/**
 * @file
 * Portable scalar backend of the SIMD dispatcher (DTC_SIMD=scalar and
 * the fallback on CPUs without AVX2): plain j-blocked loops, the
 * baseline every vector backend must match bit for bit.
 */
#define DTC_SIMD_BACKEND_SCALAR 1
#define DTC_SIMD_NS scalar_impl
#include "engine/simd/kernels_body.h"
#undef DTC_SIMD_NS
#undef DTC_SIMD_BACKEND_SCALAR

#include "engine/simd/tables.h"

namespace dtc {
namespace engine {
namespace simd {
namespace detail {

const Kernels&
scalarTable()
{
    static const Kernels k = scalar_impl::makeTable(Isa::Scalar);
    return k;
}

} // namespace detail
} // namespace simd
} // namespace engine
} // namespace dtc
