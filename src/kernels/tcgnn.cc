#include "kernels/tcgnn.h"

#include <algorithm>

#include "common/check.h"
#include "engine/spmm_csr.h"
#include "kernels/b_traffic.h"

namespace dtc {

Refusal
TcgnnKernel::prepare(const CsrMatrix& a)
{
    if (a.rows() != a.cols()) {
        return Refusal::refuse(
            ErrorCode::Unsupported,
            "TCGNN-SpMM cannot handle non-square matrices");
    }
    if (Refusal r = refuseIfOverConversionBudget(a, "TCF"); !r.ok())
        return r;
    format = TcfMatrix::build(a);
    sgt = sgtCondense(a);
    ready = true;
    return Refusal::accept();
}

void
TcgnnKernel::compute(const DenseMatrix& b, DenseMatrix& c) const
{
    DTC_CHECK(ready);
    DTC_CHECK(format.cols() == b.rows());
    DTC_CHECK(c.rows() == format.rows() && c.cols() == b.cols());
    // Walk the TCF arrays as the kernel's FetchSparse does: nonzeros
    // in CSR order, located via nodePointer/edgeList.  Within a row
    // this accumulates in ascending-column order — the same order the
    // WMMA tiles accumulate — with TF32 operand rounding.  The walk is
    // CSR-shaped, so it runs on the engine's panel-tiled driver.
    engine::spmmCsrRounded(format.rows(), format.nodePointer().data(),
                           format.edgeList().data(),
                           format.values().data(), Precision::Tf32, b,
                           c, 256);
}

LaunchResult
TcgnnKernel::cost(int64_t n, const CostModel& cm) const
{
    DTC_CHECK(ready);
    const ArchSpec& arch = cm.arch();
    BTrafficMeter meter(arch, n);
    const double nd = static_cast<double>(n);

    const int64_t windows = sgt.numWindows;
    const auto& node_ptr = format.nodePointer();

    std::vector<TbWork> tbs(static_cast<size_t>(windows));
    for (int64_t w = 0; w < windows; ++w) {
        TbWork& tb = tbs[static_cast<size_t>(w)];
        const int64_t row_lo = w * sgt.shape.windowHeight;
        const int64_t row_hi =
            std::min(row_lo + sgt.shape.windowHeight, format.rows());
        const double e = static_cast<double>(node_ptr[row_hi] -
                                             node_ptr[row_lo]);
        const double k_w = static_cast<double>(sgt.blocksPerWindow[w]);
        if (k_w == 0.0) {
            tb.fixedCycles = 400.0;
            continue;
        }

        // B traffic: each TC block fetches the 8 B rows behind its
        // compressed columns.
        const int32_t* wcols = sgt.windowColsBegin(w);
        const int64_t distinct = sgt.windowColCount(w);
        for (int64_t j = 0; j < distinct; ++j)
            meter.accessRow(wcols[j], static_cast<size_t>(w));

        // WMMA compute: per block, N/16 m16n16k8 ops = N/4 units of
        // mma.m16n8k4.
        tb.hmma = k_w * nd / 4.0;

        // FetchSparse: the whole window edge list is re-scanned once
        // per TC block (quadratic), ~kScanOpsPerEdge thread-ops and 2
        // loads per scanned edge.
        tb.imad = k_w * kScanOpsPerEdge * e / 32.0;
        tb.ldg = k_w * 2.0 * e / 32.0;
        // Rebuilding the 16x8 sparse tile in shared memory.
        tb.sts = k_w * (16.0 * 8.0) / 32.0;

        // ScatterFetchDense: 8*N scalar LDG.32 per block with heavy
        // per-element coordinate math, staged via shared memory and
        // re-loaded by wmma::load_matrix_sync.
        tb.imad += k_w * kDenseFetchOpsPerElement * 8.0 * nd / 32.0;
        tb.ldg += k_w * 8.0 * nd / 32.0;
        tb.sts += k_w * 8.0 * nd / 32.0;
        tb.lds += k_w * (8.0 * nd / 32.0 + 16.0 * 8.0 / 32.0);

        // Three barrier-separated stages per block iteration.
        tb.syncs = 3.0 * k_w;
        // Each block iteration exposes the scattered-fetch round
        // trip behind its barriers (no prefetching).
        tb.stallCycles = k_w * arch.dramLatencyCycles / 2.0;

        // A-array traffic: first scan streams the 3 index arrays +
        // values from DRAM; the k_w-1 re-scans hit in L2.
        tb.bytesDram += e * 16.0;
        tb.bytesL2Hit += std::max(0.0, k_w - 1.0) * e * 8.0;
        // C writeback.
        tb.bytesDram +=
            static_cast<double>(row_hi - row_lo) * nd * 4.0;

        // Fully synchronous WMMA pipeline: stages serialize and
        // memory latency is exposed between them.
        tb.execSerialFrac = 1.0;
        tb.memSerialFrac = 0.75;
        tb.memEfficiency = 0.65;
        tb.fixedCycles = 800.0;
    }

    meter.apportion(tbs);
    const double flops = 2.0 * static_cast<double>(format.nnz()) * nd;
    return cm.launch(name(), tbs, flops, meter.hitRate());
}

} // namespace dtc
