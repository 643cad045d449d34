#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/reference.h"

namespace dtc {
namespace perfbench {

float
nextStamp()
{
    // Every float in [1, 2) in turn: 2^23 distinct stamps before the
    // sequence would repeat, far more than one run makes.
    static uint32_t k = 0;
    const uint32_t i = k++ & ((1u << 23) - 1);
    return 1.0f + static_cast<float>(i) * 0x1p-23f;
}

void
applyStamp(DenseMatrix& b, float stamp)
{
    b.at(0, 0) = stamp;
}

PanelOracle::PanelOracle(const CsrMatrix& a_in, const DenseMatrix& base_in)
    : a(&a_in), base(&base_in), refFp32(a_in.rows(), base_in.cols()),
      refTf32(a_in.rows(), base_in.cols())
{
    referenceSpmmRounded(*a, *base, refFp32, Precision::Fp32);
    referenceSpmmRounded(*a, *base, refTf32, Precision::Tf32);

    // Rows are sorted by column, so a row reads B's row 0 iff its
    // first stored column is 0.
    const auto& rp = a->rowPtr();
    const auto& ci = a->colIdx();
    for (int64_t r = 0; r < a->rows(); ++r)
        if (rp[r] < rp[r + 1] && ci[rp[r]] == 0)
            stampRows.push_back(r);
    for (int64_t r : stampRows)
        stampCols.insert(stampCols.end(), ci.begin() + rp[r],
                         ci.begin() + rp[r + 1]);
    std::sort(stampCols.begin(), stampCols.end());
    stampCols.erase(std::unique(stampCols.begin(), stampCols.end()),
                    stampCols.end());

    std::vector<int64_t> sub_ptr{0};
    std::vector<int32_t> sub_col;
    std::vector<float> sub_val;
    for (int64_t r : stampRows) {
        for (int64_t k = rp[r]; k < rp[r + 1]; ++k) {
            sub_col.push_back(static_cast<int32_t>(
                std::lower_bound(stampCols.begin(), stampCols.end(),
                                 ci[k]) -
                stampCols.begin()));
            sub_val.push_back(a->values()[k]);
        }
        sub_ptr.push_back(static_cast<int64_t>(sub_col.size()));
    }
    stampSub = CsrMatrix::fromParts(
        static_cast<int64_t>(stampRows.size()),
        static_cast<int64_t>(stampCols.size()), std::move(sub_ptr),
        std::move(sub_col), std::move(sub_val));
}

bool
PanelOracle::check(const DenseMatrix& served, float stamp,
                   const runtime::RunReport& report) const
{
    const int64_t n = base->cols();
    if (served.rows() != a->rows() || served.cols() != n)
        return false;
    const size_t row_bytes = static_cast<size_t>(n) * sizeof(float);

    if (report.usedReferenceFallback) {
        DenseMatrix b = *base;
        applyStamp(b, stamp);
        DenseMatrix ref(a->rows(), n);
        referenceSpmm(*a, b, ref);
        double max_abs_b = 0.0;
        for (size_t i = 0; i < b.size(); ++i)
            max_abs_b = std::max(max_abs_b,
                                 std::fabs(static_cast<double>(
                                     b.data()[i])));
        const auto& rp = a->rowPtr();
        for (int64_t r = 0; r < a->rows(); ++r) {
            double abs_sum = 0.0;
            for (int64_t k = rp[r]; k < rp[r + 1]; ++k)
                abs_sum += std::fabs(a->values()[k]);
            const double bound = spmmRowErrorBound(
                Precision::Fp32, rp[r + 1] - rp[r], abs_sum, max_abs_b,
                8.0);
            for (int64_t j = 0; j < n; ++j) {
                const double err = std::fabs(
                    static_cast<double>(served.at(r, j)) - ref.at(r, j));
                if (!(err <= bound))
                    return false;
            }
        }
        return true;
    }

    // Stamp-dependent rows: the same reference over the compacted
    // sub-problem, with B's rows gathered and row 0 stamped.
    DenseMatrix sub_c(stampSub.rows(), n);
    if (!stampRows.empty()) {
        DenseMatrix sub_b(stampSub.cols(), n);
        for (size_t i = 0; i < stampCols.size(); ++i)
            std::memcpy(sub_b.row(static_cast<int64_t>(i)),
                        base->row(stampCols[i]), row_bytes);
        applyStamp(sub_b, stamp); // stampCols[0] == 0
        referenceSpmmRounded(stampSub, sub_b, sub_c, report.precision);
    }

    // Requests are FP32 or TF32, and the runtime reports the
    // requested precision; any other would mismatch here.
    const DenseMatrix& ref =
        report.precision == Precision::Fp32 ? refFp32 : refTf32;
    size_t next = 0;
    for (int64_t r = 0; r < a->rows(); ++r) {
        const float* want = ref.row(r);
        if (next < stampRows.size() && stampRows[next] == r)
            want = sub_c.row(static_cast<int64_t>(next++));
        if (std::memcmp(want, served.row(r), row_bytes) != 0)
            return false;
    }
    return true;
}

} // namespace perfbench
} // namespace dtc
