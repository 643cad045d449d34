/**
 * @file
 * Output checks for served SpMM results.
 *
 * Every request's B is a base panel whose element (0, 0) carries a
 * unique stamp, so no program cache can hit on a reused panel.  SpMM
 * rows are independent, so only the rows of C whose A row reads B's
 * row 0 depend on the stamp.  PanelOracle therefore computes
 * referenceSpmmRounded once for the base panel and, per response,
 * recomputes just the stamp-dependent rows, through the same
 * reference on a compacted sub-matrix (same rows, same ascending
 * column order, so the same bits).  A response passes when it is
 * bitwise equal to the reference at RunReport::precision, or, after
 * the runtime's reference fallback, within spmmRowErrorBound of the
 * double-accumulation reference.
 */
#ifndef DTC_PERFBENCH_ORACLE_H
#define DTC_PERFBENCH_ORACLE_H

#include <cstdint>
#include <vector>

#include "matrix/csr.h"
#include "matrix/dense.h"
#include "runtime/runtime.h"

namespace dtc {
namespace perfbench {

/** A stamp no earlier call in this process used. */
float nextStamp();

/** Writes @p stamp into @p b's element (0, 0). */
void applyStamp(DenseMatrix& b, float stamp);

/** Expected outputs for one (A, base panel) pair (see file comment). */
class PanelOracle
{
  public:
    /**
     * Precomputes the references for FP32 and TF32.  @p a and @p base
     * must outlive the oracle; rebuild it after changing @p a.
     */
    PanelOracle(const CsrMatrix& a, const DenseMatrix& base);

    /**
     * True when @p served is the correct result of A times the base
     * panel stamped with @p stamp, for the execution @p report
     * describes.
     */
    bool check(const DenseMatrix& served, float stamp,
               const runtime::RunReport& report) const;

  private:
    const CsrMatrix* a;
    const DenseMatrix* base;
    DenseMatrix refFp32;
    DenseMatrix refTf32;

    std::vector<int64_t> stampRows; ///< Rows of A holding column 0.
    CsrMatrix stampSub;             ///< Those rows, columns compacted.
    std::vector<int32_t> stampCols; ///< Original column per compact one.
};

} // namespace perfbench
} // namespace dtc

#endif // DTC_PERFBENCH_ORACLE_H
