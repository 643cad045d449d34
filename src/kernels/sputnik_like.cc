#include "kernels/sputnik_like.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "engine/spmm_csr.h"
#include "kernels/b_traffic.h"

namespace dtc {

Refusal
SputnikKernel::prepare(const CsrMatrix& a)
{
    // int32 index-space limit of the real library (NNZ and row
    // offsets are computed in int32).
    if (a.nnz() > std::numeric_limits<int32_t>::max() ||
        a.rows() > std::numeric_limits<int32_t>::max()) {
        return Refusal::refuse(
            ErrorCode::Unsupported,
            "int32 index overflow (segfault in real Sputnik)");
    }
    if (Refusal r = refuseIfOverConversionBudget(a, "Sputnik");
        !r.ok())
        return r;
    mat = a;
    swizzle.resize(static_cast<size_t>(a.rows()));
    std::iota(swizzle.begin(), swizzle.end(), 0);
    std::stable_sort(swizzle.begin(), swizzle.end(),
                     [&](int32_t x, int32_t y) {
                         return mat.rowLength(x) > mat.rowLength(y);
                     });
    ready = true;
    return Refusal::accept();
}

void
SputnikKernel::compute(const DenseMatrix& b, DenseMatrix& c) const
{
    DTC_CHECK(ready);
    DTC_CHECK(mat.cols() == b.rows());
    DTC_CHECK(c.rows() == mat.rows() && c.cols() == b.cols());
    // The swizzle only changes scheduling: every row writes a
    // disjoint C slab, so natural row order (and row-parallel chunks)
    // computes the same bits as a swizzled walk.  cost() models it.
    engine::spmmCsrRounded(mat.rows(), mat.rowPtr().data(),
                           mat.colIdx().data(), mat.values().data(),
                           Precision::Fp32, b, c, 64);
}

LaunchResult
SputnikKernel::cost(int64_t n, const CostModel& cm) const
{
    DTC_CHECK(ready);
    const ArchSpec& arch = cm.arch();
    BTrafficMeter meter(arch, n);
    const double nd = static_cast<double>(n);

    // Thread blocks own kTilesPerTb 1-D tiles; tiles are cut from the
    // swizzled row order so concurrent blocks see similar lengths.
    std::vector<TbWork> tbs;
    TbWork cur;
    int64_t tiles_in_cur = 0;
    auto flush = [&]() {
        if (tiles_in_cur > 0) {
            cur.syncs = 1.0;
            cur.execSerialFrac = 1.0;
            cur.memSerialFrac = 0.20;
            cur.memEfficiency = 0.58;
            cur.fixedCycles = 500.0;
            tbs.push_back(cur);
            cur = TbWork();
            tiles_in_cur = 0;
        }
    };

    for (int32_t r : swizzle) {
        const int64_t len = mat.rowLength(r);
        const int64_t row_tiles =
            std::max<int64_t>(1, (len + kTileNnz - 1) / kTileNnz);
        for (int64_t t = 0; t < row_tiles; ++t) {
            const int64_t k_lo = mat.rowPtr()[r] + t * kTileNnz;
            const int64_t k_hi =
                std::min(k_lo + kTileNnz, mat.rowPtr()[r + 1]);
            const double e = static_cast<double>(k_hi - k_lo);
            for (int64_t k = k_lo; k < k_hi; ++k)
                meter.accessRow(mat.colIdx()[k], tbs.size());

            // Vector loads throughout (reverse offset alignment):
            // B rows via LDG.128, A indices/values via LDG.128 pairs.
            cur.ldg += e * (nd / 128.0) + 2.0 * e / 128.0;
            // Leaner index math than cuSPARSE: precomputed tile
            // descriptors leave ~1 IMAD per load plus 1 per nonzero.
            cur.imad += e * (nd / 128.0) + e / 32.0;
            cur.fma += e * nd / 32.0;
            // Partial-row tiles combine results with atomics.
            if (row_tiles > 1)
                cur.atom += nd / 32.0 / static_cast<double>(row_tiles);
            cur.bytesDram += e * 8.0 + nd * 4.0 /
                                 static_cast<double>(row_tiles);
            // Aligned vector loads give each warp far more loads in
            // flight than plain row-split.
            cur.stallCycles += e * arch.dramLatencyCycles / 96.0;
            if (++tiles_in_cur == kTilesPerTb)
                flush();
        }
    }
    flush();

    meter.apportion(tbs);
    const double flops = 2.0 * static_cast<double>(mat.nnz()) * nd;
    return cm.launch(name(), tbs, flops, meter.hitRate());
}

} // namespace dtc
