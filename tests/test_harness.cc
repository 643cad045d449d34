/**
 * @file
 * Tests of the conformance & fuzzing harness itself (src/testing/):
 * generator determinism and per-family structure contracts, oracle
 * verdicts across every adversarial family, metamorphic properties,
 * shrinker behaviour, and the end-to-end demonstration the harness
 * exists for — a deliberately injected off-by-one in an ME-TCF
 * local-index decode is invisible to benign inputs, caught by the
 * differential oracle on adversarial structure, and shrunk to a
 * <= 32-nnz replayable corpus artifact.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>

#include "common/error.h"
#include "common/precision.h"
#include "engine/simd/simd.h"
#include "formats/me_tcf.h"
#include "kernels/kernel.h"
#include "matrix/coo.h"
#include "matrix/csr.h"
#include "matrix/dense.h"
#include "testing/fuzz.h"
#include "testing/generators.h"
#include "testing/oracle.h"
#include "testing/properties.h"
#include "testing/shrink.h"

namespace dtc {
namespace {

using testing::StructureFamily;

// ---------------------------------------------------------------------
// Structure generators.
// ---------------------------------------------------------------------

TEST(Generators, DeterministicAndValidAcrossFamiliesAndScales)
{
    for (StructureFamily family : testing::allStructureFamilies()) {
        SCOPED_TRACE(testing::structureFamilyName(family));
        for (int scale : {0, 1}) {
            const CsrMatrix a =
                testing::generateStructure(family, 5, scale);
            const CsrMatrix b =
                testing::generateStructure(family, 5, scale);
            EXPECT_TRUE(a == b) << "scale " << scale;
            EXPECT_NO_THROW(a.validate());
        }
    }
}

TEST(Generators, FamilyNamesRoundTripAndAreUnique)
{
    std::set<std::string> names;
    for (StructureFamily family : testing::allStructureFamilies()) {
        const std::string n = testing::structureFamilyName(family);
        EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
        EXPECT_EQ(testing::structureFamilyFromName(n), family);
    }
    EXPECT_THROW(testing::structureFamilyFromName("not-a-family"),
                 DtcError);
}

/** Max nonzeros in any single row of @p m. */
int64_t
maxRowNnz(const CsrMatrix& m)
{
    int64_t best = 0;
    for (int64_t r = 0; r < m.rows(); ++r)
        best = std::max(best, m.rowPtr()[r + 1] - m.rowPtr()[r]);
    return best;
}

TEST(Generators, FamiliesDeliverTheirAdvertisedPathology)
{
    // Each family exists to stress a specific structural corner; if a
    // refactor quietly softens one, the fuzzer's coverage claim rots.
    const uint64_t seed = 9;

    const CsrMatrix empty_rows = testing::generateStructure(
        StructureFamily::EmptyRows, seed, 0);
    int64_t empties = 0;
    for (int64_t r = 0; r < empty_rows.rows(); ++r) {
        if (empty_rows.rowPtr()[r + 1] == empty_rows.rowPtr()[r])
            ++empties;
    }
    EXPECT_GT(empties, empty_rows.rows() / 2);

    const CsrMatrix singleton = testing::generateStructure(
        StructureFamily::SingletonRows, seed, 0);
    EXPECT_EQ(maxRowNnz(singleton), 1);
    EXPECT_GT(singleton.nnz(), 0);

    const CsrMatrix hub = testing::generateStructure(
        StructureFamily::PowerLaw, seed, 0);
    EXPECT_GE(maxRowNnz(hub), hub.cols() / 2);

    EXPECT_EQ(testing::generateStructure(StructureFamily::SingleRowWide,
                                         seed, 0)
                  .rows(),
              1);
    EXPECT_EQ(testing::generateStructure(StructureFamily::SingleColTall,
                                         seed, 0)
                  .cols(),
              1);
    EXPECT_EQ(testing::generateStructure(StructureFamily::AllZero, seed,
                                         0)
                  .nnz(),
              0);

    const CsrMatrix wide = testing::generateStructure(
        StructureFamily::WideColumnSpan, seed, 0);
    EXPECT_GT(wide.cols(), int64_t{32768});
    int64_t span = 0;
    for (int64_t r = 0; r < wide.rows(); ++r) {
        const int64_t lo = wide.rowPtr()[r], hi = wide.rowPtr()[r + 1];
        if (hi > lo)
            span = std::max<int64_t>(
                span, wide.colIdx()[hi - 1] - wide.colIdx()[lo]);
    }
    EXPECT_GT(span, int64_t{32767});

    const CsrMatrix zeros = testing::generateStructure(
        StructureFamily::ZeroValues, seed, 0);
    int64_t stored_zeros = 0;
    for (float v : zeros.values())
        stored_zeros += (v == 0.0f);
    EXPECT_GT(stored_zeros, 0);
}

// ---------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------

TEST(Oracle, GreenOnEveryAdversarialFamily)
{
    // The full-width sweep lives in the fuzz_smoke ctest; this inner
    // slice keeps gtest fast while still touching every family.
    testing::OracleConfig cfg;
    cfg.precisions = {Precision::Fp32, Precision::Tf32,
                      Precision::Fp16};
    cfg.threadCounts = {1, 4};
    // The ISA axis: the scalar baseline plus every ISA the host runs.
    EXPECT_EQ(cfg.isas, engine::simd::supportedIsas());
    EXPECT_EQ(cfg.isas.front(), engine::simd::Isa::Scalar);
    for (StructureFamily family : testing::allStructureFamilies()) {
        testing::OracleCase c;
        c.a = testing::generateStructure(family, 2, 0);
        c.label = testing::structureFamilyName(family);
        const testing::OracleReport rep = testing::runOracle(c, cfg);
        EXPECT_TRUE(rep.ok())
            << c.label << ": "
            << (rep.firstFailure() ? rep.firstFailure()->describe()
                                   : "");
        EXPECT_GT(rep.passes, 0) << c.label;
        // Every expressible (kind, precision) pair runs on every ISA
        // and thread count; nothing is skipped.
        int64_t pairs = 0;
        for (KernelKind kind : allKernelKinds())
            for (Precision p : cfg.precisions)
                pairs += kernelSupportsPrecision(kind, p) ? 1 : 0;
        EXPECT_EQ(rep.combos(),
                  pairs * static_cast<int64_t>(cfg.isas.size()) *
                      static_cast<int64_t>(cfg.threadCounts.size()))
            << c.label;
    }
}

TEST(Oracle, SingleConfigJudgesExactlyOneCombo)
{
    testing::OracleCase c;
    c.a = testing::generateStructure(StructureFamily::Banded, 3, 0);
    const testing::OracleReport rep = testing::runOracle(
        c, testing::OracleConfig::single(KernelKind::Dtc,
                                         Precision::Tf32,
                                         engine::simd::Isa::Scalar, 1));
    EXPECT_EQ(rep.combos(), 1);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---------------------------------------------------------------------
// Metamorphic properties.
// ---------------------------------------------------------------------

TEST(Properties, HoldOnRepresentativeFamilies)
{
    for (StructureFamily family : {StructureFamily::PowerLaw,
                                   StructureFamily::Banded,
                                   StructureFamily::DuplicateColumns}) {
        SCOPED_TRACE(testing::structureFamilyName(family));
        const CsrMatrix a = testing::generateStructure(family, 4, 0);
        testing::PropertyResult r = testing::checkLinearity(
            a, KernelKind::Dtc, Precision::Tf32, 16, 9);
        EXPECT_TRUE(r.passed) << "linearity: " << r.detail;
        r = testing::checkScalarScaling(a, KernelKind::Dtc,
                                        Precision::Tf32, 16, 9);
        EXPECT_TRUE(r.passed) << "scaling: " << r.detail;
        r = testing::checkSerializeRoundTrip(a, KernelKind::Dtc,
                                             Precision::Tf32, 16, 9);
        EXPECT_TRUE(r.passed) << "serialize: " << r.detail;
    }
}

TEST(Properties, ReorderInvarianceAcrossRegistryMethods)
{
    const CsrMatrix a = testing::generateStructure(
        StructureFamily::PowerLaw, 6, 0);
    for (ReorderMethod method :
         {ReorderMethod::Tca, ReorderMethod::Louvain,
          ReorderMethod::Metis}) {
        const testing::PropertyResult r =
            testing::checkReorderInvariance(a, method, KernelKind::Dtc,
                                            Precision::Tf32, 16, 9);
        EXPECT_TRUE(r.passed) << r.detail;
    }
}

// ---------------------------------------------------------------------
// Fault sweep and corpus replay plumbing.
// ---------------------------------------------------------------------

TEST(FaultSweep, EveryInjectedFaultIsTypedOrCorrect)
{
    testing::FuzzOptions opt;
    const testing::FuzzStats stats = testing::runFaultSweep(opt);
    EXPECT_TRUE(stats.ok()) << stats.summary();
    EXPECT_GT(stats.faultRuns, 0);
    EXPECT_TRUE(stats.failureLines.empty());
}

TEST(CorpusReplay, MissingDirectoryIsGreen)
{
    const testing::FuzzStats stats =
        testing::replayCorpus("/nonexistent/dtc-corpus", nullptr);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats.cases, 0);
}

// ---------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------

TEST(Shrinker, RejectsNonReproducingInput)
{
    const CsrMatrix m = testing::generateStructure(
        StructureFamily::Banded, 1, 0);
    EXPECT_THROW(
        testing::shrinkMatrix(m,
                              [](const CsrMatrix&) { return false; }),
        DtcError);
}

TEST(Shrinker, MinimizesToTheSingleLoadBearingNonzero)
{
    // A value-tagged predicate: the failure "is" one marked nonzero,
    // so a correct shrinker must strip everything else away.
    CsrMatrix m = testing::generateStructure(StructureFamily::Banded,
                                             8, 0);
    ASSERT_GT(m.nnz(), 10);
    CooMatrix coo = m.toCoo();
    const auto marked = [](const CsrMatrix& c) {
        for (float v : c.values())
            if (v == 42.0f)
                return true;
        return false;
    };
    CooMatrix tagged(m.rows(), m.cols());
    for (int64_t i = 0; i < coo.nnz(); ++i) {
        tagged.add(coo.rowIndices()[i], coo.colIndices()[i],
                   i == coo.nnz() / 2 ? 42.0f : coo.values()[i]);
    }
    const CsrMatrix failing = CsrMatrix::fromCoo(tagged);
    ASSERT_TRUE(marked(failing));

    const testing::ShrinkResult r =
        testing::shrinkMatrix(failing, marked);
    EXPECT_EQ(r.matrix.nnz(), 1);
    EXPECT_TRUE(marked(r.matrix));
    EXPECT_GT(r.reductions, 0);
    EXPECT_GT(r.evaluations, 0);
    EXPECT_LE(r.matrix.rows(), failing.rows());
    EXPECT_LE(r.matrix.cols(), failing.cols());
}

// ---------------------------------------------------------------------
// The injected-bug demonstration (issue acceptance criterion): an
// off-by-one in the ME-TCF local-index decode must be caught by the
// oracle judgement and shrink to a <= 32-nnz reproducer.
// ---------------------------------------------------------------------

/**
 * A deliberately buggy DTC-style SpMM walking ME-TCF directly: for a
 * nonzero in the last block lane it decodes localCol as 0 instead of
 * blockWidth-1 — the classic off-by-one in the 8-bit local id
 * (localRow*8 + localCol).  The bug is dormant unless some row window
 * condenses to >= 8 distinct columns, so benign narrow inputs pass
 * bit-exactly and only adversarial structure exposes it.
 */
DenseMatrix
buggyMeTcfSpmm(const CsrMatrix& a, const DenseMatrix& b)
{
    const MeTcfMatrix t = MeTcfMatrix::build(a);
    DenseMatrix c(a.rows(), b.cols());
    c.setZero();
    const int bw = t.shape().blockWidth;
    for (int64_t w = 0; w < t.numWindows(); ++w) {
        for (int64_t blk = t.rowWindowOffset()[w];
             blk < t.rowWindowOffset()[w + 1]; ++blk) {
            for (int64_t k = t.tcOffset()[blk];
                 k < t.tcOffset()[blk + 1]; ++k) {
                const int local = t.tcLocalId()[k];
                const int lr = local / bw;
                int lc = local % bw;
                if (lc == bw - 1)
                    lc = 0; // BUG: off-by-one wrap of the local column
                const int64_t row =
                    w * t.shape().windowHeight + lr;
                const int32_t b_row =
                    t.sparseAtoB()[blk * bw + lc];
                if (b_row == MeTcfMatrix::kPadColumn)
                    continue;
                const float v = t.values()[k];
                for (int64_t j = 0; j < b.cols(); ++j)
                    c.at(row, j) += v * b.at(b_row, j);
            }
        }
    }
    return c;
}

/** The oracle's verdict on the buggy kernel for matrix @p m. */
bool
buggyKernelFails(const CsrMatrix& m)
{
    const DenseMatrix b = testing::makeDenseOperand(m.cols(), 8, 77);
    const DenseMatrix c = buggyMeTcfSpmm(m, b);
    return !testing::judgeResult(m, b, c, Precision::Fp32,
                                 /*bit_exact=*/true, 8.0)
                .empty();
}

TEST(InjectedBug, DormantOnNarrowWindowsCaughtOnAdversarialOnes)
{
    // DuplicateColumns draws every nonzero from a pool of < 8
    // columns, so no window reaches block lane 7: the buggy kernel is
    // bit-exact there and a naive "one nice matrix" test passes it.
    const CsrMatrix narrow = testing::generateStructure(
        StructureFamily::DuplicateColumns, 11, 0);
    EXPECT_FALSE(buggyKernelFails(narrow));

    // The power-law hub row condenses to far more than 8 distinct
    // columns, populating lane 7 — the differential oracle flags it.
    const CsrMatrix hub = testing::generateStructure(
        StructureFamily::PowerLaw, 11, 0);
    EXPECT_TRUE(buggyKernelFails(hub));
}

TEST(InjectedBug, ShrinksToTinyReproducerAndRoundTripsAsArtifact)
{
    const CsrMatrix hub = testing::generateStructure(
        StructureFamily::PowerLaw, 11, 0);
    ASSERT_TRUE(buggyKernelFails(hub));

    const testing::ShrinkResult shrunk =
        testing::shrinkMatrix(hub, buggyKernelFails, 1500);
    EXPECT_LE(shrunk.matrix.nnz(), 32)
        << "issue acceptance: <= 32-nnz reproducer";
    EXPECT_TRUE(buggyKernelFails(shrunk.matrix));
    EXPECT_GT(shrunk.reductions, 0);
    EXPECT_LT(shrunk.matrix.nnz(), hub.nnz());

    // Dump -> reload must preserve the reproducer bit for bit (the
    // mm writer emits max_digits10), and the replay axes verbatim.
    const std::string dir = "/tmp/dtc_harness_corpus";
    std::filesystem::create_directories(dir);
    testing::FailureArtifact info;
    info.family = testing::structureFamilyName(
        StructureFamily::PowerLaw);
    info.structSeed = 11;
    info.scale = 0;
    info.kind = KernelKind::Dtc;
    info.precision = Precision::Tf32;
    info.isa = engine::simd::Isa::Scalar;
    info.threads = 1;
    info.denseWidth = 8;
    info.denseSeed = 77;
    info.detail = "injected me-tcf local-index off-by-one";
    const std::string case_path = testing::writeFailureArtifact(
        dir, "injected-local-index", shrunk.matrix, info);

    const testing::LoadedArtifact loaded =
        testing::loadFailureArtifact(case_path);
    EXPECT_TRUE(loaded.matrix == shrunk.matrix);
    EXPECT_EQ(loaded.info.family, info.family);
    EXPECT_EQ(loaded.info.kind, info.kind);
    EXPECT_EQ(loaded.info.precision, info.precision);
    EXPECT_EQ(loaded.info.denseSeed, info.denseSeed);
    EXPECT_EQ(loaded.info.isa, info.isa);

    // The reloaded matrix still trips the buggy kernel...
    EXPECT_TRUE(buggyKernelFails(loaded.matrix));
    // ...while the real registry kernel passes the same combo, which
    // is exactly what a checked-in regression artifact asserts.
    EXPECT_FALSE(testing::replayArtifact(loaded));

    // Every ISA this host runs replays green; one it lacks is a typed
    // error, never a silent replay on another backend.
    for (const engine::simd::Isa isa :
         {engine::simd::Isa::Scalar, engine::simd::Isa::Avx2,
          engine::simd::Isa::Avx512}) {
        testing::LoadedArtifact pinned = loaded;
        pinned.info.isa = isa;
        if (engine::simd::isaSupported(isa))
            EXPECT_FALSE(testing::replayArtifact(pinned));
        else
            EXPECT_THROW(testing::replayArtifact(pinned), DtcError);
    }
}

} // namespace
} // namespace dtc
