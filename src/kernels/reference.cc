#include "kernels/reference.h"

#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace dtc {

namespace {

/** Rows per parallelFor chunk: each chunk owns disjoint C rows. */
constexpr int64_t kRowGrain = 64;

} // namespace

void
referenceSpmm(const CsrMatrix& a, const DenseMatrix& b, DenseMatrix& c)
{
    DTC_CHECK(a.cols() == b.rows());
    DTC_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
    const int64_t n = b.cols();
    parallelFor(0, a.rows(), kRowGrain,
                [&](int64_t r_lo, int64_t r_hi) {
        std::vector<double> acc(static_cast<size_t>(n));
        for (int64_t r = r_lo; r < r_hi; ++r) {
            std::fill(acc.begin(), acc.end(), 0.0);
            for (int64_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1];
                 ++k) {
                const double v = a.values()[k];
                const float* brow = b.row(a.colIdx()[k]);
                for (int64_t j = 0; j < n; ++j)
                    acc[j] += v * static_cast<double>(brow[j]);
            }
            float* crow = c.row(r);
            for (int64_t j = 0; j < n; ++j)
                crow[j] = static_cast<float>(acc[j]);
        }
    });
}

void
referenceSpmmRounded(const CsrMatrix& a, const DenseMatrix& b,
                     DenseMatrix& c, Precision p)
{
    DTC_CHECK(a.cols() == b.rows());
    DTC_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
    const int64_t n = b.cols();
    c.setZero();
    const bool round_a = p != Precision::Fp32;
    parallelFor(0, a.rows(), kRowGrain,
                [&](int64_t r_lo, int64_t r_hi) {
        for (int64_t r = r_lo; r < r_hi; ++r) {
            float* crow = c.row(r);
            for (int64_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1];
                 ++k) {
                const float v =
                    round_a ? roundToPrecision(a.values()[k], p)
                            : a.values()[k];
                const float* brow = b.row(a.colIdx()[k]);
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += v * (round_a
                                        ? roundToPrecision(brow[j], p)
                                        : brow[j]);
            }
        }
    });
}

double
spmmRowErrorBound(Precision p, int64_t row_len, double row_abs_sum,
                  double max_abs_b, double safety)
{
    // 2^-24 rounded up — the FP32 accumulation epsilon.
    constexpr double kEps32 = 5.97e-8;
    const double u = unitRoundoff(p);
    return safety *
           (2.0 * u + static_cast<double>(row_len + 8) * kEps32) *
           row_abs_sum * max_abs_b;
}

} // namespace dtc
