#include "gnn/dense_ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "engine/engine.h"
#include "engine/simd/simd.h"

namespace dtc {

void
gemm(const DenseMatrix& a, bool transpose_a, const DenseMatrix& b,
     bool transpose_b, DenseMatrix& c)
{
    const int64_t m = transpose_a ? a.cols() : a.rows();
    const int64_t k = transpose_a ? a.rows() : a.cols();
    const int64_t kb = transpose_b ? b.cols() : b.rows();
    const int64_t n = transpose_b ? b.rows() : b.cols();
    DTC_CHECK(k == kb);
    DTC_CHECK(c.rows() == m && c.cols() == n);

    auto ea = [&](int64_t i, int64_t j) {
        return transpose_a ? a.at(j, i) : a.at(i, j);
    };

    c.setZero();
    // i-k-j loop order: per C element the products are added in
    // ascending kk, skipping zero A entries, on both paths below.
    if (!transpose_b) {
        // B row kk is contiguous, so the inner loop is the same SIMD
        // axpy the SpMM kernels use, panel-tiled over N.
        const engine::simd::Kernels& K = engine::simd::kernels();
        const int64_t pw = engine::panelCols(n);
        for (int64_t j0 = 0; j0 < n; j0 += pw) {
            const int64_t pn = std::min(pw, n - j0);
            for (int64_t i = 0; i < m; ++i) {
                float* crow = c.row(i) + j0;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float av = ea(i, kk);
                    if (av == 0.0f)
                        continue;
                    K.axpy(crow, b.row(kk) + j0, av, pn);
                }
            }
        }
        return;
    }
    // Transposed B: B(kk, j) = b.at(j, kk) is strided, so a plain loop.
    for (int64_t i = 0; i < m; ++i) {
        float* crow = c.row(i);
        for (int64_t kk = 0; kk < k; ++kk) {
            const float av = ea(i, kk);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * b.at(j, kk);
        }
    }
}

void
addBias(DenseMatrix& c, const std::vector<float>& bias)
{
    DTC_CHECK(static_cast<int64_t>(bias.size()) == c.cols());
    for (int64_t i = 0; i < c.rows(); ++i) {
        float* row = c.row(i);
        for (int64_t j = 0; j < c.cols(); ++j)
            row[j] += bias[j];
    }
}

void
reluForward(DenseMatrix& x)
{
    float* d = x.data();
    for (size_t i = 0; i < x.size(); ++i)
        d[i] = std::max(0.0f, d[i]);
}

void
reluBackward(const DenseMatrix& activated, DenseMatrix& grad)
{
    DTC_CHECK(activated.rows() == grad.rows() &&
              activated.cols() == grad.cols());
    const float* a = activated.data();
    float* g = grad.data();
    for (size_t i = 0; i < grad.size(); ++i) {
        if (a[i] <= 0.0f)
            g[i] = 0.0f;
    }
}

void
softmaxRows(DenseMatrix& x)
{
    for (int64_t i = 0; i < x.rows(); ++i) {
        float* row = x.row(i);
        float mx = row[0];
        for (int64_t j = 1; j < x.cols(); ++j)
            mx = std::max(mx, row[j]);
        double sum = 0.0;
        for (int64_t j = 0; j < x.cols(); ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
        }
        const float inv = static_cast<float>(1.0 / sum);
        for (int64_t j = 0; j < x.cols(); ++j)
            row[j] *= inv;
    }
}

double
crossEntropy(const DenseMatrix& probs,
             const std::vector<int32_t>& labels,
             DenseMatrix* grad_logits)
{
    DTC_CHECK(static_cast<int64_t>(labels.size()) == probs.rows());
    const double inv_rows = 1.0 / static_cast<double>(probs.rows());
    double loss = 0.0;
    if (grad_logits) {
        DTC_CHECK(grad_logits->rows() == probs.rows() &&
                  grad_logits->cols() == probs.cols());
    }
    for (int64_t i = 0; i < probs.rows(); ++i) {
        const int32_t y = labels[i];
        DTC_CHECK(y >= 0 && y < probs.cols());
        const float p = std::max(probs.at(i, y), 1e-12f);
        loss -= std::log(static_cast<double>(p)) * inv_rows;
        if (grad_logits) {
            for (int64_t j = 0; j < probs.cols(); ++j) {
                grad_logits->at(i, j) =
                    static_cast<float>((probs.at(i, j) -
                                        (j == y ? 1.0f : 0.0f)) *
                                       inv_rows);
            }
        }
    }
    return loss;
}

double
accuracy(const DenseMatrix& probs, const std::vector<int32_t>& labels)
{
    DTC_CHECK(static_cast<int64_t>(labels.size()) == probs.rows());
    int64_t correct = 0;
    for (int64_t i = 0; i < probs.rows(); ++i) {
        int64_t best = 0;
        for (int64_t j = 1; j < probs.cols(); ++j)
            if (probs.at(i, j) > probs.at(i, best))
                best = j;
        if (best == labels[i])
            correct++;
    }
    return static_cast<double>(correct) /
           static_cast<double>(probs.rows());
}

double
denseGemmTimeMs(int64_t m, int64_t k, int64_t n, const ArchSpec& arch)
{
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(k) *
                         static_cast<double>(n);
    const double peak_flops =
        2.0 * arch.tcMacsPerCycle * static_cast<double>(arch.numSms) *
        arch.clockGhz * 1e9;
    // cuBLAS TF32 GEMM sustains ~70% of peak on these shapes.
    const double t_compute = flops / (0.70 * peak_flops) * 1e3;
    const double bytes =
        4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
               static_cast<double>(m) * n);
    const double t_mem = bytes / (arch.dramBwGBps * 1e9) * 1e3;
    return std::max(t_compute, t_mem) + 0.004; // launch overhead
}

double
elementwiseTimeMs(int64_t elems, const ArchSpec& arch)
{
    const double bytes = 8.0 * static_cast<double>(elems);
    return bytes / (arch.dramBwGBps * 1e9) * 1e3 + 0.003;
}

} // namespace dtc
