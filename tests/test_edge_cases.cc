/**
 * @file
 * Edge-case and failure-injection tests across modules: degenerate
 * matrices (empty, single row, dense, empty windows), boundary
 * dense widths, odd architecture parameters, traffic-meter
 * conservation, and conversions at the uint8 local-id limits.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "formats/me_tcf.h"
#include "formats/tcf.h"
#include "gpusim/scheduler.h"
#include "kernels/b_traffic.h"
#include "kernels/dtc.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "matrix/coo.h"
#include "selector/selector.h"
#include "testing/oracle.h"

namespace dtc {
namespace {

/** Kernels that accept any square matrix. */
const KernelKind kAlwaysSupported[] = {
    KernelKind::CuSparse,      KernelKind::Sputnik,
    KernelKind::SparseTir,     KernelKind::Tcgnn,
    KernelKind::Dtc,           KernelKind::VectorSparse4,
};

TEST(EdgeCases, EmptyMatrixThroughEveryKernel)
{
    CsrMatrix a(64, 64); // structurally empty
    DenseMatrix b(64, 8), c(64, 8);
    Rng rng(1);
    b.fillRandom(rng);
    CostModel cm(ArchSpec::rtx4090());
    for (KernelKind kind : kAlwaysSupported) {
        auto kernel = makeKernel(kind);
        ASSERT_EQ(kernel->prepare(a), "") << kernelKindName(kind);
        c.fill(99.0f);
        kernel->compute(b, c);
        for (size_t i = 0; i < c.size(); ++i)
            ASSERT_EQ(c.data()[i], 0.0f) << kernelKindName(kind);
        LaunchResult r = kernel->cost(8, cm);
        EXPECT_GE(r.timeMs, 0.0) << kernelKindName(kind);
    }
}

TEST(EdgeCases, ZeroDimensionShapesThroughFullPipeline)
{
    // 0x0, 0xN and Mx0 through SGT -> ME-TCF -> every registered
    // kernel: each must refuse with a structured Refusal or produce a
    // correctly-shaped all-zero C — never crash or mis-size.
    struct Shape
    {
        int64_t rows;
        int64_t cols;
    };
    CostModel cm(ArchSpec::rtx4090());
    for (const Shape s : {Shape{0, 0}, Shape{0, 64}, Shape{64, 0}}) {
        SCOPED_TRACE(::testing::Message()
                     << s.rows << "x" << s.cols);
        CsrMatrix a(s.rows, s.cols);
        MeTcfMatrix t = MeTcfMatrix::build(a);
        EXPECT_NO_THROW(t.validate());
        EXPECT_TRUE(a == t.toCsr());

        const DenseMatrix b =
            testing::makeDenseOperand(s.cols, 8, 42);
        for (KernelKind kind : allKernelKinds()) {
            auto kernel = makeKernel(kind);
            const Refusal r = kernel->prepare(a);
            if (!r.ok()) {
                EXPECT_FALSE(kernel->prepared())
                    << kernelKindName(kind);
                continue;
            }
            DenseMatrix c(s.rows, 8);
            c.fill(99.0f);
            kernel->compute(b, c);
            ASSERT_EQ(c.rows(), s.rows) << kernelKindName(kind);
            ASSERT_EQ(c.cols(), 8) << kernelKindName(kind);
            for (size_t i = 0; i < c.size(); ++i)
                ASSERT_EQ(c.data()[i], 0.0f) << kernelKindName(kind);
            const LaunchResult lr = kernel->cost(8, cm);
            EXPECT_GE(lr.timeMs, 0.0) << kernelKindName(kind);
        }
    }
}

TEST(EdgeCases, AllZeroRowsInterleavedThroughEveryKernel)
{
    // Rows 0, 17 and 40 populated, everything else (including whole
    // 16-row windows) empty: every kernel that accepts must match the
    // reference at its native precision — empty rows exactly zero.
    CooMatrix coo(48, 48);
    coo.add(0, 5, 1.5f);
    coo.add(17, 31, -2.0f);
    coo.add(40, 0, 0.5f);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    const DenseMatrix b = testing::makeDenseOperand(48, 8, 43);
    for (const KernelTraits& kt : allKernelTraits()) {
        auto kernel = makeKernel(kt.kind);
        if (!kernel->prepare(a).ok())
            continue;
        DenseMatrix c(48, 8);
        c.fill(99.0f);
        kernel->compute(b, c);
        EXPECT_EQ(testing::judgeResult(a, b, c, kt.nativePrecision,
                                       kt.bitExactRounded, 8.0),
                  "")
            << kernel->name();
        for (int64_t r : {1, 16, 30, 47})
            for (int64_t j = 0; j < 8; ++j)
                ASSERT_EQ(c.at(r, j), 0.0f)
                    << kernel->name() << " row " << r;
    }
}

TEST(EdgeCases, SingleElementThroughEveryKernel)
{
    // One nonzero in a 1x1 matrix, judged through the same oracle the
    // fuzzer uses (refusal allowed, wrong answer not).
    CooMatrix coo(1, 1);
    coo.add(0, 0, 2.5f);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    MeTcfMatrix t = MeTcfMatrix::build(a);
    EXPECT_NO_THROW(t.validate());
    EXPECT_TRUE(a == t.toCsr());
    const DenseMatrix b = testing::makeDenseOperand(1, 4, 44);
    for (const KernelTraits& kt : allKernelTraits()) {
        auto kernel = makeKernel(kt.kind);
        if (!kernel->prepare(a).ok())
            continue;
        DenseMatrix c(1, 4);
        kernel->compute(b, c);
        EXPECT_EQ(testing::judgeResult(a, b, c, kt.nativePrecision,
                                       kt.bitExactRounded, 8.0),
                  "")
            << kernel->name();
    }
}

TEST(EdgeCases, SingleEntryMatrix)
{
    CooMatrix coo(1, 1);
    coo.add(0, 0, 2.5f);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    DenseMatrix b(1, 4), c(1, 4);
    for (int j = 0; j < 4; ++j)
        b.at(0, j) = static_cast<float>(j + 1);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    kernel.compute(b, c);
    for (int j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(c.at(0, j), 2.5f * (j + 1));
}

TEST(EdgeCases, FullyDenseMatrix)
{
    // Every position nonzero: SGT has nothing to condense but must
    // still be exact.
    const int64_t n = 48;
    CooMatrix coo(n, n);
    Rng rng(2);
    for (int32_t r = 0; r < n; ++r)
        for (int32_t c = 0; c < n; ++c)
            coo.add(r, c, rng.nextFloat(0.5f, 1.5f));
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    MeTcfMatrix t = MeTcfMatrix::build(a);
    EXPECT_NO_THROW(t.validate());
    EXPECT_DOUBLE_EQ(t.meanNnzTc(), 128.0); // every block full
    EXPECT_TRUE(a == t.toCsr());
}

TEST(EdgeCases, EmptyWindowsInMiddle)
{
    // Rows 16..31 empty: that window contributes zero TC blocks.
    CooMatrix coo(48, 48);
    coo.add(3, 7, 1.0f);
    coo.add(40, 2, 2.0f);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    MeTcfMatrix t = MeTcfMatrix::build(a);
    EXPECT_EQ(t.numWindows(), 3);
    EXPECT_EQ(t.blocksInWindow(0), 1);
    EXPECT_EQ(t.blocksInWindow(1), 0);
    EXPECT_EQ(t.blocksInWindow(2), 1);
    EXPECT_TRUE(a == t.toCsr());

    DenseMatrix b(48, 8), c(48, 8);
    Rng rng(3);
    b.fillRandom(rng);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    kernel.compute(b, c);
    DenseMatrix want(48, 8);
    referenceSpmmRounded(a, b, want, Precision::Tf32);
    EXPECT_TRUE(c == want);
}

TEST(EdgeCases, RowCountNotMultipleOfWindow)
{
    Rng rng(4);
    for (int64_t n : {15, 17, 31, 33, 255}) {
        CsrMatrix a = genUniform(n, 3.0, rng);
        MeTcfMatrix t = MeTcfMatrix::build(a);
        EXPECT_NO_THROW(t.validate()) << n;
        EXPECT_TRUE(a == t.toCsr()) << n;
    }
}

TEST(EdgeCases, LocalIdBoundaryRow15Column7)
{
    // A nonzero landing on local id 127 exactly.
    CooMatrix coo(16, 64);
    for (int32_t c = 0; c < 8; ++c)
        coo.add(15, c * 8, 1.0f); // row 15 gets 8 distinct columns
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    MeTcfMatrix t = MeTcfMatrix::build(a);
    EXPECT_EQ(t.tcLocalId().back(), 127);
    EXPECT_TRUE(a == t.toCsr());
}

TEST(EdgeCases, DenseWidthOne)
{
    Rng rng(5);
    CsrMatrix a = genUniform(128, 6.0, rng);
    DenseMatrix b(a.cols(), 1), c(a.rows(), 1), want(a.rows(), 1);
    b.fillRandom(rng);
    for (KernelKind kind : kAlwaysSupported) {
        auto kernel = makeKernel(kind);
        ASSERT_EQ(kernel->prepare(a), "");
        kernel->compute(b, c);
        referenceSpmm(a, b, want);
        EXPECT_LT(c.maxAbsDiff(want), 0.05) << kernelKindName(kind);
    }
}

TEST(EdgeCases, TrafficMeterConservesBytes)
{
    ArchSpec arch = ArchSpec::rtx4090();
    BTrafficMeter meter(arch, 128);
    std::vector<TbWork> tbs(3);
    Rng rng(6);
    double expect[3] = {};
    for (int i = 0; i < 300; ++i) {
        size_t tb = rng.nextBounded(3);
        meter.accessRow(static_cast<int32_t>(rng.nextBounded(1000)),
                        tb);
        expect[tb] += 128 * 4;
    }
    meter.apportion(tbs);
    for (int t = 0; t < 3; ++t) {
        EXPECT_NEAR(tbs[t].bytesL2Hit + tbs[t].bytesDram, expect[t],
                    1e-6);
    }
}

TEST(EdgeCases, TrafficMeterHitRateAppliedUniformly)
{
    ArchSpec arch = ArchSpec::rtx4090();
    BTrafficMeter meter(arch, 64);
    std::vector<TbWork> tbs(2);
    // Same row 10 times in tb0 (hits), 10 distinct rows in tb1
    // (misses): both get the launch-wide rate.
    for (int i = 0; i < 10; ++i)
        meter.accessRow(0, 0);
    for (int i = 0; i < 10; ++i)
        meter.accessRow(100 + i, 1);
    const double rate = meter.hitRate();
    meter.apportion(tbs);
    EXPECT_NEAR(tbs[0].bytesL2Hit / (tbs[0].bytesL2Hit +
                                     tbs[0].bytesDram),
                rate, 1e-9);
    EXPECT_NEAR(tbs[1].bytesL2Hit / (tbs[1].bytesL2Hit +
                                     tbs[1].bytesDram),
                rate, 1e-9);
}

TEST(EdgeCases, SchedulerOddSmCount)
{
    std::vector<double> tbs(100, 10.0);
    ScheduleResult r = scheduleThreadBlocks(tbs, 7, 3);
    double total = 0.0;
    for (double b : r.smBusyCycles)
        total += b;
    EXPECT_NEAR(total, 1000.0, 1e-9);
    EXPECT_GE(r.makespanCycles, 1000.0 / 21.0);
}

TEST(EdgeCases, SchedulerSingleSm)
{
    std::vector<double> tbs{5.0, 6.0, 7.0};
    ScheduleResult r = scheduleThreadBlocks(tbs, 1, 1);
    EXPECT_DOUBLE_EQ(r.makespanCycles, 18.0);
    EXPECT_EQ(r.tbToSm, (std::vector<int>{0, 0, 0}));
}

TEST(EdgeCases, SelectorAllEmptyWindows)
{
    std::vector<int64_t> blocks(100, 0);
    SelectorDecision d =
        selectKernel(blocks, ArchSpec::rtx4090());
    EXPECT_FALSE(d.useBalanced);
}

TEST(EdgeCases, GeneratorsRejectBadArguments)
{
    Rng rng(7);
    EXPECT_THROW(genUniform(0, 4.0, rng), std::invalid_argument);
    EXPECT_THROW(genUniform(10, 0.0, rng), std::invalid_argument);
    EXPECT_THROW(genBanded(10, 0, 2.0, rng), std::invalid_argument);
    EXPECT_THROW(genCommunity(10, 20, 2.0, 0.5, rng),
                 std::invalid_argument);
    EXPECT_THROW(genCommunity(10, 2, 2.0, 1.5, rng),
                 std::invalid_argument);
    EXPECT_THROW(genComponents(10, 1, 5, 0.1, rng),
                 std::invalid_argument);
}

TEST(EdgeCases, NearDenseGeneratorClampsGracefully)
{
    // avg degree close to n: dedup caps realized degree.
    Rng rng(8);
    CsrMatrix a = genUniform(64, 60.0, rng);
    EXPECT_NO_THROW(a.validate());
    EXPECT_LE(a.nnz(), 64 * 64);
    MeTcfMatrix t = MeTcfMatrix::build(a);
    EXPECT_NO_THROW(t.validate());
}

TEST(EdgeCases, KernelsRejectShapeMismatches)
{
    Rng rng(9);
    CsrMatrix a = genUniform(64, 4.0, rng);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    DenseMatrix wrong_b(32, 8); // wrong inner dimension
    DenseMatrix c(64, 8);
    EXPECT_THROW(kernel.compute(wrong_b, c), std::invalid_argument);
    DenseMatrix b(64, 8);
    DenseMatrix wrong_c(64, 4); // wrong output width
    EXPECT_THROW(kernel.compute(b, wrong_c), std::invalid_argument);
}

TEST(EdgeCases, ComputeBeforePrepareThrows)
{
    DtcKernel kernel;
    DenseMatrix b(8, 8), c(8, 8);
    EXPECT_THROW(kernel.compute(b, c), std::invalid_argument);
    CostModel cm(ArchSpec::rtx4090());
    EXPECT_THROW(kernel.cost(8, cm), std::invalid_argument);
}

} // namespace
} // namespace dtc
