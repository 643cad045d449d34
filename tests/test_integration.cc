/**
 * @file
 * Integration tests: the full DTC-SpMM pipeline (reorder -> convert
 * -> select -> compute) end to end, cross-module consistency, and
 * Table-1-scale smoke checks.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/table1.h"
#include "formats/me_tcf.h"
#include "kernels/dtc.h"
#include "kernels/reference.h"
#include "reorder/tca.h"
#include "selector/selector.h"

namespace dtc {
namespace {

TEST(Integration, FullPipelineMatchesReference)
{
    // The complete DTC-SpMM flow of Fig. 4: TCA reorder, ME-TCF
    // conversion, Selector decision, runtime kernel — then verify the
    // product against the reference on the reordered matrix.
    Rng rng(1);
    CsrMatrix a = shuffleLabels(
        genCommunity(1024, 16, 24.0, 0.9, rng), rng);

    auto perm = tcaReorder(a).permutation;
    CsrMatrix reordered = a.permuteRows(perm);

    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(reordered), "");
    SelectorDecision d = kernel.decide(ArchSpec::rtx4090());
    EXPECT_GT(d.approximationRatio, 0.0);

    DenseMatrix b(reordered.cols(), 64);
    b.fillRandom(rng);
    DenseMatrix c(reordered.rows(), 64);
    kernel.compute(b, c);

    DenseMatrix want(reordered.rows(), 64);
    referenceSpmmRounded(reordered, b, want, Precision::Tf32);
    EXPECT_TRUE(c == want);

    // Row permutation only permutes C rows: verify against the
    // original matrix through the permutation.
    DenseMatrix orig_want(a.rows(), 64);
    referenceSpmmRounded(a, b, orig_want, Precision::Tf32);
    for (int64_t r = 0; r < a.rows(); ++r)
        for (int64_t j = 0; j < 64; ++j)
            EXPECT_FLOAT_EQ(c.at(r, j), orig_want.at(perm[r], j));
}

TEST(Integration, ReorderingImprovesCondensationOnTable1Analog)
{
    CsrMatrix a = table1ByAbbr("DD").make();
    const double before = MeTcfMatrix::build(a).meanNnzTc();
    auto perm = tcaReorder(a).permutation;
    const double after =
        MeTcfMatrix::build(a.permuteRows(perm)).meanNnzTc();
    EXPECT_GT(after, before);
}

TEST(Integration, SelectorDecisionsDifferAcrossTable1Types)
{
    // Type II matrices with few, huge windows want strict balance;
    // fine-grained Type I matrices do not.
    CsrMatrix yh = table1ByAbbr("YH").make();
    CsrMatrix ddi = table1ByAbbr("ddi").make();
    ArchSpec arch = ArchSpec::rtx4090();
    SelectorDecision d_yh =
        selectKernel(MeTcfMatrix::build(yh), arch);
    SelectorDecision d_ddi =
        selectKernel(MeTcfMatrix::build(ddi), arch);
    EXPECT_FALSE(d_yh.useBalanced);
    EXPECT_TRUE(d_ddi.useBalanced);
}

TEST(Integration, CostModelConsistentWithFunctionalNnz)
{
    Rng rng(2);
    CsrMatrix a = genUniform(512, 12.0, rng);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(a), "");
    CostModel cm(ArchSpec::rtx4090());
    LaunchResult r = kernel.cost(128, cm);
    EXPECT_DOUBLE_EQ(r.flops, 2.0 * static_cast<double>(a.nnz()) *
                                  128.0);
    // HMMA work covers at least the useful MACs.
    EXPECT_GE(r.totalHmma * ArchSpec::kMacsPerHmma,
              static_cast<double>(a.nnz()) * 128.0);
}

TEST(Integration, PermutationInvariantResultNorm)
{
    // Symmetric relabeling must not change the multiset of C values
    // when B rows are permuted consistently.
    Rng rng(3);
    CsrMatrix a = genCommunity(256, 4, 12.0, 0.9, rng);
    auto perm = randomPermutation(a.rows(), rng);
    CsrMatrix pa = a.permuteSymmetric(perm);

    DenseMatrix b(a.cols(), 8);
    b.fillRandom(rng);
    DenseMatrix pb(a.cols(), 8);
    for (int64_t r = 0; r < a.rows(); ++r)
        for (int64_t j = 0; j < 8; ++j)
            pb.at(r, j) = b.at(perm[r], j);

    DtcKernel k1, k2;
    ASSERT_EQ(k1.prepare(a), "");
    ASSERT_EQ(k2.prepare(pa), "");
    DenseMatrix c(a.rows(), 8), pc(a.rows(), 8);
    k1.compute(b, c);
    k2.compute(pb, pc);
    for (int64_t r = 0; r < a.rows(); ++r)
        for (int64_t j = 0; j < 8; ++j)
            EXPECT_NEAR(pc.at(r, j), c.at(perm[r], j), 1e-4)
                << r << "," << j;
}

TEST(Integration, Table1AnalogSmoke)
{
    // Build the smallest Type I and Type II analogs, run the whole
    // kernel set's prepare + cost; everything must either work or
    // refuse with the documented reasons.
    CostModel cm(ArchSpec::rtx4090());
    for (const char* abbr : {"DD", "ddi"}) {
        CsrMatrix a = table1ByAbbr(abbr).make();
        for (KernelKind kind :
             {KernelKind::CuSparse, KernelKind::Tcgnn,
              KernelKind::Dtc, KernelKind::Sputnik,
              KernelKind::SparseTir}) {
            auto kernel = makeKernel(kind);
            ASSERT_EQ(kernel->prepare(a), "") << abbr;
            LaunchResult r = kernel->cost(128, cm);
            EXPECT_GT(r.timeMs, 0.0)
                << abbr << " " << kernel->name();
            EXPECT_GT(r.gflops(), 0.0);
        }
    }
}

} // namespace
} // namespace dtc
