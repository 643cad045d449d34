/**
 * @file
 * Functional correctness of every SpMM kernel: agreement with the
 * double-precision reference within TF32/FP32 tolerance, bit-level
 * agreement of TC kernels with the TF32 reference, baseline refusal
 * behaviours (OOM / Not Supported), parameterized sweeps across
 * matrix classes and dense widths.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "datasets/generators.h"
#include "kernels/dtc.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "kernels/sparta_like.h"

namespace dtc {
namespace {

/** Relative-error comparison helper. */
void
expectClose(const DenseMatrix& got, const DenseMatrix& want,
            double rel_tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    const double scale = std::max(1.0, want.frobeniusNorm() /
                                           std::sqrt(static_cast<double>(
                                               want.size())));
    EXPECT_LE(got.maxAbsDiff(want), rel_tol * scale * 50.0);
}

CsrMatrix
testMatrix(int which, Rng& rng)
{
    switch (which % 5) {
      case 0:
        return genUniform(300, 8.0, rng);
      case 1:
        return genPowerLaw(257, 6.0, 1.3, rng);
      case 2:
        return genCommunity(320, 4, 20.0, 0.85, rng);
      case 3:
        return genBanded(300, 12, 5.0, rng);
      default:
        return genComponents(310, 6, 20, 0.2, rng);
    }
}

/**
 * Parameterized over the registry's own enumeration: a kernel added
 * to allKernelTraits() is swept here with zero test edits.
 */
class KernelCorrectness
    : public ::testing::TestWithParam<KernelTraits>
{};

TEST_P(KernelCorrectness, MatchesReferenceAcrossMatrixClasses)
{
    const KernelTraits& kt = GetParam();
    Rng rng(123);
    for (int which = 0; which < 5; ++which) {
        CsrMatrix a = testMatrix(which, rng);
        auto kernel = makeKernel(kt.kind);
        const std::string err = kernel->prepare(a);
        ASSERT_EQ(err, "") << kernel->name();

        DenseMatrix b(a.cols(), 32);
        b.fillRandom(rng);
        DenseMatrix c(a.rows(), 32);
        kernel->compute(b, c);

        DenseMatrix want(a.rows(), 32);
        referenceSpmm(a, b, want);
        expectClose(c, want,
                    kt.nativePrecision == Precision::Fp32 ? 1e-6
                                                          : 1e-3);
    }
}

TEST_P(KernelCorrectness, BitMatchesRoundedReference)
{
    const KernelTraits& kt = GetParam();
    if (!kt.bitExactRounded)
        GTEST_SKIP() << "kernel mixes precisions (tolerance-only)";
    Rng rng(7);
    CsrMatrix a = genUniform(200, 10.0, rng);
    auto kernel = makeKernel(kt.kind);
    ASSERT_EQ(kernel->prepare(a), "");

    DenseMatrix b(a.cols(), 16);
    b.fillRandom(rng);
    DenseMatrix c(a.rows(), 16);
    kernel->compute(b, c);

    DenseMatrix want(a.rows(), 16);
    referenceSpmmRounded(a, b, want, kt.nativePrecision);
    EXPECT_TRUE(c == want) << kernel->name()
                           << " maxdiff=" << c.maxAbsDiff(want);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelCorrectness,
    ::testing::ValuesIn(allKernelTraits()),
    [](const ::testing::TestParamInfo<KernelTraits>& info) {
        std::string n = kernelKindName(info.param.kind);
        for (char& ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

class DenseWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DenseWidthSweep, DtcCorrectAtWidth)
{
    const int n = GetParam();
    Rng rng(31);
    CsrMatrix a = genCommunity(256, 4, 16.0, 0.8, rng);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    DenseMatrix b(a.cols(), n);
    b.fillRandom(rng);
    DenseMatrix c(a.rows(), n), want(a.rows(), n);
    kernel.compute(b, c);
    referenceSpmmRounded(a, b, want, Precision::Tf32);
    EXPECT_TRUE(c == want);
}

INSTANTIATE_TEST_SUITE_P(Widths, DenseWidthSweep,
                         ::testing::Values(1, 8, 16, 32, 128, 256));

TEST(Kernels, DtcAblationVariantsAllCorrect)
{
    // All 16 on/off combinations of {smb, ip, sdb, vfd} compute the
    // same (bit-exact) result: the flags change the instruction
    // stream, never the math.
    Rng rng(77);
    CsrMatrix a = genUniform(200, 8.0, rng);
    DenseMatrix b(a.cols(), 16);
    b.fillRandom(rng);
    DenseMatrix want(a.rows(), 16);
    referenceSpmmRounded(a, b, want, Precision::Tf32);
    for (int mask = 0; mask < 16; ++mask) {
        DtcOptions o;
        o.smb = mask & 1;
        o.ip = mask & 2;
        o.sdb = mask & 4;
        o.vfd = mask & 8;
        DtcKernel kernel(o);
        ASSERT_EQ(kernel.prepare(a), "");
        DenseMatrix c(a.rows(), 16);
        kernel.compute(b, c);
        EXPECT_TRUE(c == want) << "mask=" << mask;
    }
}

TEST(Kernels, SpartaMatchesReferenceLoosely)
{
    // SparTA mixes TF32 (structured) and FP32 (remainder) numerics.
    Rng rng(9);
    CsrMatrix a = genUniform(400, 12.0, rng);
    SpartaKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    DenseMatrix b(a.cols(), 24);
    b.fillRandom(rng);
    DenseMatrix c(a.rows(), 24), want(a.rows(), 24);
    kernel.compute(b, c);
    referenceSpmm(a, b, want);
    expectClose(c, want, 1e-3);
}

TEST(Kernels, SpartaSplitsNnzConsistently)
{
    Rng rng(10);
    CsrMatrix a = genUniform(500, 20.0, rng);
    SpartaKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    EXPECT_EQ(kernel.structuredNnz() + kernel.remainderNnz(),
              a.nnz());
    EXPECT_GT(kernel.structuredNnz(), 0);
}

TEST(Kernels, SpartaRefusesLargeMatrices)
{
    Rng rng(11);
    CsrMatrix a = genUniform(SpartaKernel::kDimLimit + 100, 2.0, rng);
    SpartaKernel kernel;
    const std::string err = kernel.prepare(a);
    EXPECT_NE(err.find("Not Supported"), std::string::npos);
    EXPECT_FALSE(kernel.prepared());
}

TEST(Kernels, FlashLlmRefusesHugeDenseStaging)
{
    // 200k^2 dense floats = 160 GB > the modeled host budget.
    CsrMatrix a(200000, 200000);
    auto kernel = makeKernel(KernelKind::FlashLlmV1);
    const std::string err = kernel->prepare(a);
    EXPECT_NE(err.find("OOM"), std::string::npos);
}

TEST(Kernels, BlockSpmmRefusesPaddingBlowup)
{
    Rng rng(12);
    CsrMatrix a = genPowerLaw(120000, 12.0, 1.5, rng);
    auto kernel = makeKernel(KernelKind::BlockSpmm64);
    const std::string err = kernel->prepare(a);
    EXPECT_NE(err.find("OOM"), std::string::npos) << err;
}

TEST(Kernels, TcgnnRefusesNonSquare)
{
    CsrMatrix a(100, 50);
    auto kernel = makeKernel(KernelKind::Tcgnn);
    EXPECT_NE(kernel->prepare(a), "");
}

TEST(Kernels, NamesMatchRegistry)
{
    // The traits table is the single source of truth: every kind it
    // lists must construct, carry the registry name, and appear in
    // allKernelNames() exactly once.
    const std::vector<std::string> names = allKernelNames();
    const std::vector<KernelKind> kinds = allKernelKinds();
    ASSERT_EQ(names.size(), kinds.size());
    for (size_t i = 0; i < kinds.size(); ++i) {
        auto kernel = makeKernel(kinds[i]);
        ASSERT_NE(kernel, nullptr);
        EXPECT_EQ(kernel->name(), kernelKindName(kinds[i]));
        EXPECT_EQ(kernel->name(), names[i]);
    }
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Kernels, MakeKernelAtHonorsTraits)
{
    for (const KernelTraits& kt : allKernelTraits())
        for (Precision p : {Precision::Fp32, Precision::Tf32,
                            Precision::Bf16, Precision::Fp16}) {
            auto kernel = makeKernelAt(kt.kind, p);
            if (kernelSupportsPrecision(kt.kind, p))
                EXPECT_NE(kernel, nullptr)
                    << kernelKindName(kt.kind) << " @ "
                    << precisionName(p);
            else
                EXPECT_EQ(kernel, nullptr)
                    << kernelKindName(kt.kind) << " @ "
                    << precisionName(p);
        }
}

TEST(Kernels, ReferenceTf32CloseToDouble)
{
    Rng rng(13);
    CsrMatrix a = genUniform(300, 10.0, rng);
    DenseMatrix b(a.cols(), 16);
    b.fillRandom(rng);
    DenseMatrix d(a.rows(), 16), t(a.rows(), 16);
    referenceSpmm(a, b, d);
    referenceSpmmRounded(a, b, t, Precision::Tf32);
    // TF32 keeps ~3 decimal digits.
    expectClose(t, d, 1e-3);
    EXPECT_FALSE(t == d); // but is genuinely lower precision
}

} // namespace
} // namespace dtc
