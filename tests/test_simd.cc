/**
 * @file
 * Engine and SIMD backend suite (src/engine/).
 *
 * Four contracts:
 *   1. Independence — every engine-routed kernel, on every SIMD
 *      backend the host supports, is bitwise equal to the naive
 *      referenceSpmmRounded (kernels/reference.h shares no code with
 *      the engine) across matrix shapes, dense widths (ragged tails,
 *      and N wide enough for several column panels), operand
 *      precisions and thread counts.  The engine's CSR drivers match
 *      the naive references too, and gemm matches an i-k-j loop
 *      written here.
 *   2. Backend identity — every vector backend matches Isa::Scalar,
 *      the portable baseline, around the vector widths, and its
 *      rounding pass matches roundToPrecision.
 *   3. PreparedDense — cache hits, re-rounding after in-place
 *      mutation, and the rounded values themselves.
 *   4. Dispatch — cpuid detection, the typed DTC_SIMD override
 *      (scalar|avx2|avx512; anything else, or an ISA the CPU lacks,
 *      raises DtcError(InvalidInput)), ScopedSimdMode nesting, and
 *      the ScopedPanelCols override.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/precision.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"
#include "engine/spmm_csr.h"
#include "gnn/dense_ops.h"
#include "kernels/dtc.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "matrix/coo.h"

namespace dtc {
namespace {

using engine::simd::Isa;
using engine::simd::ScopedSimdMode;

/** Saves/restores DTC_SIMD around a test (CI legs may force it). */
class EnvGuard
{
  public:
    explicit EnvGuard(const char* name) : varName(name)
    {
        const char* v = std::getenv(name);
        if (v) {
            had = true;
            saved = v;
        }
        ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had)
            ::setenv(varName.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(varName.c_str());
    }
    void set(const std::string& v)
    {
        ::setenv(varName.c_str(), v.c_str(), 1);
    }

  private:
    std::string varName;
    bool had = false;
    std::string saved;
};

/**
 * Dense widths: j-block multiples, odd tails (13, 137), panel-exact
 * (256 = kPanelCols), and 515 (odd AND > 2*kPanelCols, forcing the
 * multi-panel path with a ragged last panel).  Tests that depend on
 * 515 exercising multiple panels pin ScopedPanelCols(kPanelCols),
 * since the auto-tuned base (engine::panelColsBase) can be wide
 * enough on big-cache hosts to make 515 a single panel.
 */
const int64_t kWidths[] = {1, 8, 13, 16, 137, 256, 515};

/** Widths around the vector boundaries: 1, 7 (sub-vector), 9 (one
 * vector + tail), 33 (crosses the AVX-512 16-lane step). */
const int64_t kSimdWidths[] = {1, 7, 9, 33};

const Precision kTcPrecisions[] = {Precision::Tf32, Precision::Bf16,
                                   Precision::Fp16};

std::vector<std::pair<std::string, CsrMatrix>>
sweepMatrices()
{
    std::vector<std::pair<std::string, CsrMatrix>> out;
    out.emplace_back("empty-32x32", CsrMatrix(32, 32));

    CooMatrix onerow(64, 64);
    for (int32_t c = 0; c < 64; c += 3)
        onerow.add(0, c, 1.0f + static_cast<float>(c));
    out.emplace_back("single-populated-row",
                     CsrMatrix::fromCoo(onerow));

    Rng rng(2024);
    // Full 16x8 TC blocks: every lane of every block is populated.
    out.emplace_back("dense-blocks",
                     genBlockDiagonal(64, 16, 1.0, rng));
    out.emplace_back("dense-ish",
                     genBlockDiagonal(64, 16, 0.9, rng));
    out.emplace_back("sparse-95pct", genUniform(256, 4.0, rng));
    out.emplace_back("community",
                     genCommunity(512, 8, 12.0, 0.85, rng));
    return out;
}

std::vector<KernelKind>
engineRoutedKinds()
{
    return {KernelKind::CuSparse, KernelKind::Tcgnn,
            KernelKind::Dtc,      KernelKind::DtcBase,
            KernelKind::DtcBalanced, KernelKind::Sputnik};
}

DenseMatrix
randomDense(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    DenseMatrix d(rows, cols);
    d.fillRandom(rng);
    return d;
}

/** The naive oracle: C = A * B with operands rounded to @p p. */
DenseMatrix
naiveRounded(const CsrMatrix& a, const DenseMatrix& b, Precision p)
{
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmmRounded(a, b, c, p);
    return c;
}

/** compute() of a kernel prepared on @p a, on backend @p isa. */
DenseMatrix
runCompute(const SpmmKernel& kernel, const CsrMatrix& a,
           const DenseMatrix& b, Isa isa)
{
    ScopedSimdMode mode(isa);
    DenseMatrix c(a.rows(), b.cols());
    // Fresh rounding pass per call so PreparedDense cannot hand one
    // backend a panel rounded by another: each backend's roundPanel
    // runs too.
    engine::clearPreparedDenseCache();
    kernel.compute(b, c);
    return c;
}

void
expectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    if (a.size() > 0) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(float)),
                  0);
    }
}

std::string
label(const std::string& what, int64_t n, Isa isa)
{
    return what + " n=" + std::to_string(n) +
           " isa=" + engine::simd::isaName(isa);
}

// ---------------------------------------------------------------------
// 1. Independence: the engine against the naive references.
// ---------------------------------------------------------------------

TEST(EngineEquivalence, AllEngineRoutedKernelsAllWidths)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : engineRoutedKinds()) {
            auto kernel = makeKernel(kind);
            if (!kernel->prepare(m).empty())
                continue;
            const Precision p = kernelTraits(kind).nativePrecision;
            for (int64_t n : kWidths) {
                const DenseMatrix b = randomDense(m.cols(), n, 99);
                const DenseMatrix want = naiveRounded(m, b, p);
                for (Isa isa : engine::simd::supportedIsas()) {
                    SCOPED_TRACE(label(std::string(kernelKindName(kind)) +
                                           " on " + mat_name,
                                       n, isa));
                    expectBitwiseEqual(runCompute(*kernel, m, b, isa),
                                       want);
                }
            }
        }
    }
}

TEST(EngineEquivalence, DtcAllPrecisions)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (Precision p : kTcPrecisions) {
            DtcOptions opts;
            opts.precision = p;
            DtcKernel kernel(opts);
            if (!kernel.prepare(m).empty())
                continue;
            for (int64_t n : kWidths) {
                const DenseMatrix b = randomDense(m.cols(), n, 99);
                const DenseMatrix want = naiveRounded(m, b, p);
                for (Isa isa : engine::simd::supportedIsas()) {
                    SCOPED_TRACE(label(mat_name + " precision=" +
                                           precisionName(p),
                                       n, isa));
                    expectBitwiseEqual(runCompute(kernel, m, b, isa),
                                       want);
                }
            }
        }
    }
}

/** The engine's CSR drivers compute the naive references' numerics. */
TEST(EngineEquivalence, ReferenceKernels)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (int64_t n : kWidths) {
            const DenseMatrix b = randomDense(m.cols(), n, 5);
            DenseMatrix want(m.rows(), n);
            referenceSpmm(m, b, want);
            for (Isa isa : engine::simd::supportedIsas()) {
                SCOPED_TRACE(label(mat_name + " double", n, isa));
                ScopedSimdMode mode(isa);
                DenseMatrix got(m.rows(), n);
                engine::spmmCsrDoubleAcc(
                    m.rows(), m.rowPtr().data(), m.colIdx().data(),
                    m.values().data(), b, got, 64);
                expectBitwiseEqual(got, want);
            }
            for (Precision p : {Precision::Fp32, Precision::Tf32,
                                Precision::Bf16, Precision::Fp16}) {
                const DenseMatrix want_p = naiveRounded(m, b, p);
                for (Isa isa : engine::simd::supportedIsas()) {
                    SCOPED_TRACE(label(mat_name + " " +
                                           precisionName(p),
                                       n, isa));
                    ScopedSimdMode mode(isa);
                    engine::clearPreparedDenseCache();
                    DenseMatrix got(m.rows(), n);
                    engine::spmmCsrRounded(
                        m.rows(), m.rowPtr().data(),
                        m.colIdx().data(), m.values().data(), p, b,
                        got, 64);
                    expectBitwiseEqual(got, want_p);
                }
            }
        }
    }
}

TEST(EngineEquivalence, GemmAllTransposeCombos)
{
    Rng rng(11);
    // n = 13 is j-block-ragged; n = 150 spans three 64-wide panels.
    engine::ScopedPanelCols pin(64);
    const int64_t m = 37, k = 23;
    for (int64_t n : {13, 150}) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                DenseMatrix a(ta ? k : m, ta ? m : k);
                DenseMatrix b(tb ? n : k, tb ? k : n);
                a.fillRandom(rng);
                b.fillRandom(rng);
                for (int64_t i = 0; i < a.rows(); i += 3)
                    a.at(i, i % a.cols()) = 0.0f; // the zero skip

                DenseMatrix want(m, n);
                want.setZero();
                for (int64_t i = 0; i < m; ++i) {
                    for (int64_t kk = 0; kk < k; ++kk) {
                        const float av = ta ? a.at(kk, i) : a.at(i, kk);
                        if (av == 0.0f)
                            continue;
                        for (int64_t j = 0; j < n; ++j)
                            want.at(i, j) +=
                                av * (tb ? b.at(j, kk) : b.at(kk, j));
                    }
                }
                for (Isa isa : engine::simd::supportedIsas()) {
                    SCOPED_TRACE(label(std::string("ta=") +
                                           (ta ? "1" : "0") +
                                           " tb=" + (tb ? "1" : "0"),
                                       n, isa));
                    ScopedSimdMode mode(isa);
                    DenseMatrix got(m, n);
                    gemm(a, ta, b, tb, got);
                    expectBitwiseEqual(got, want);
                }
            }
        }
    }
}

TEST(EngineEquivalence, ThreadCountInvariant)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : engineRoutedKinds()) {
            auto kernel = makeKernel(kind);
            if (!kernel->prepare(m).empty())
                continue;
            SCOPED_TRACE(std::string(kernelKindName(kind)) + " on " +
                         mat_name);
            const DenseMatrix b = randomDense(m.cols(), 137, 99);
            const Isa isa = engine::simd::detectedIsa();
            DenseMatrix c1, c8;
            {
                ScopedNumThreads t(1);
                c1 = runCompute(*kernel, m, b, isa);
            }
            {
                ScopedNumThreads t(8);
                c8 = runCompute(*kernel, m, b, isa);
            }
            expectBitwiseEqual(c1, c8);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Backend identity: every vector backend against Isa::Scalar.
// ---------------------------------------------------------------------

TEST(SimdEquivalence, AllEngineRoutedKernels)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : engineRoutedKinds()) {
            auto kernel = makeKernel(kind);
            if (!kernel->prepare(m).empty())
                continue;
            for (int64_t n : kSimdWidths) {
                const DenseMatrix b = randomDense(m.cols(), n, 41);
                const DenseMatrix scalar =
                    runCompute(*kernel, m, b, Isa::Scalar);
                for (Isa isa : engine::simd::supportedIsas()) {
                    SCOPED_TRACE(label(std::string(kernelKindName(kind)) +
                                           " on " + mat_name,
                                       n, isa));
                    expectBitwiseEqual(
                        scalar, runCompute(*kernel, m, b, isa));
                }
            }
        }
    }
}

TEST(SimdEquivalence, DtcAllPrecisionsAllThreadCounts)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (Precision p : kTcPrecisions) {
            DtcOptions opts;
            opts.precision = p;
            DtcKernel kernel(opts);
            if (!kernel.prepare(m).empty())
                continue;
            for (int threads : {1, 4, 8}) {
                ScopedNumThreads nt(threads);
                for (int64_t n : kSimdWidths) {
                    const DenseMatrix b = randomDense(m.cols(), n, 41);
                    const DenseMatrix scalar =
                        runCompute(kernel, m, b, Isa::Scalar);
                    for (Isa isa : engine::simd::supportedIsas()) {
                        SCOPED_TRACE(label(
                            mat_name + " p=" + precisionName(p) +
                                " threads=" + std::to_string(threads),
                            n, isa));
                        expectBitwiseEqual(
                            scalar, runCompute(kernel, m, b, isa));
                    }
                }
            }
        }
    }
}

/** Raw roundPanel vs the scalar roundToPrecision, including FP16
 * saturation/flush edges and non-finite passthrough. */
TEST(SimdEquivalence, RoundPanelMatchesScalarRounding)
{
    AlignedVector<float> in;
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        in.push_back(rng.nextFloat(-70000.0f, 70000.0f));
    for (int i = 0; i < 100; ++i)
        in.push_back(rng.nextFloat(-1e-4f, 1e-4f)); // FP16 subnormals
    const float specials[] = {
        0.0f,
        -0.0f,
        65504.0f,
        -65504.0f,
        65520.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        6.103515625e-5f,
    };
    in.insert(in.end(), std::begin(specials), std::end(specials));
    // Odd total length: exercises the scalar tail of every backend.
    in.push_back(1.5f);

    const int64_t n = static_cast<int64_t>(in.size());
    for (Precision p : {Precision::Fp32, Precision::Tf32,
                        Precision::Bf16, Precision::Fp16}) {
        for (Isa isa : engine::simd::supportedIsas()) {
            SCOPED_TRACE(std::string(precisionName(p)) + " isa=" +
                         engine::simd::isaName(isa));
            const engine::simd::Kernels& K =
                engine::simd::kernelsFor(isa);
            AlignedVector<float> out(in.size(), 0.0f);
            K.roundPanel(out.data(), in.data(), n, p);
            for (int64_t i = 0; i < n; ++i) {
                const float want = roundToPrecision(in[i], p);
                ASSERT_EQ(std::memcmp(&out[i], &want, sizeof(float)),
                          0)
                    << "i=" << i << " in=" << in[i] << " got="
                    << out[i] << " want=" << want;
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. PreparedDense.
// ---------------------------------------------------------------------

TEST(EngineEquivalence, PreparedDenseCacheHitsAndInvalidation)
{
    engine::clearPreparedDenseCache();
    engine::resetStats();
    Rng rng(3);
    DenseMatrix b(64, 32);
    b.fillRandom(rng);

    {
        engine::PreparedDense p1(b, Precision::Tf32);
        EXPECT_FALSE(p1.fromCache());
    }
    EXPECT_EQ(engine::stats().panelMisses.load(), 1u);
    EXPECT_EQ(engine::stats().roundingOps.load(),
              static_cast<uint64_t>(64 * 32));

    {
        // Same contents: served from cache, no new rounding.
        engine::PreparedDense p2(b, Precision::Tf32);
        EXPECT_TRUE(p2.fromCache());
    }
    EXPECT_EQ(engine::stats().panelHits.load(), 1u);
    EXPECT_EQ(engine::stats().roundingOps.load(),
              static_cast<uint64_t>(64 * 32));

    {
        // Different precision: its own entry.
        engine::PreparedDense p3(b, Precision::Fp16);
        EXPECT_FALSE(p3.fromCache());
    }
    EXPECT_EQ(engine::stats().panelMisses.load(), 2u);

    // In-place mutation (a GCN feature matrix between steps) must
    // re-round rather than serve the stale panel.
    b.at(5, 7) += 1.0f;
    {
        engine::PreparedDense p4(b, Precision::Tf32);
        EXPECT_FALSE(p4.fromCache());
    }
    EXPECT_EQ(engine::stats().panelMisses.load(), 3u);

    // Fp32 is pass-through: no rounding, no cache traffic.
    const uint64_t ops = engine::stats().roundingOps.load();
    {
        engine::PreparedDense p5(b, Precision::Fp32);
        EXPECT_FALSE(p5.fromCache());
        EXPECT_EQ(p5.row(0), b.row(0));
    }
    EXPECT_EQ(engine::stats().roundingOps.load(), ops);

    engine::clearPreparedDenseCache();
}

/** The rounded panel holds exactly roundToPrecision(B), per backend. */
TEST(EngineEquivalence, PreparedDenseValuesMatchScalarRounding)
{
    Rng rng(17);
    DenseMatrix b(33, 21);
    b.fillRandom(rng, -70000.0f, 70000.0f); // exercise FP16 saturation
    for (Isa isa : engine::simd::supportedIsas()) {
        ScopedSimdMode mode(isa);
        for (Precision p : kTcPrecisions) {
            engine::clearPreparedDenseCache();
            engine::PreparedDense pd(b, p);
            for (int64_t r = 0; r < b.rows(); ++r) {
                const float* pr = pd.row(r);
                for (int64_t j = 0; j < b.cols(); ++j) {
                    const float want = roundToPrecision(b.at(r, j), p);
                    ASSERT_EQ(
                        std::memcmp(&pr[j], &want, sizeof(float)), 0)
                        << "r=" << r << " j=" << j
                        << " p=" << precisionName(p)
                        << " isa=" << engine::simd::isaName(isa);
                }
            }
        }
    }
    engine::clearPreparedDenseCache();
}

// ---------------------------------------------------------------------
// 4. Dispatch.
// ---------------------------------------------------------------------

TEST(SimdDispatch, DetectedIsaIsSupportedAndDefault)
{
    EnvGuard guard("DTC_SIMD");
    const Isa detected = engine::simd::detectedIsa();
    EXPECT_TRUE(engine::simd::isaSupported(detected));
    // Scalar is the baseline every host runs; detection is the widest.
    const std::vector<Isa> isas = engine::simd::supportedIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), Isa::Scalar);
    EXPECT_EQ(isas.back(), detected);
    // With no env and no override, activeIsa is the detection.
    EXPECT_EQ(engine::simd::activeIsa(), detected);
    EXPECT_EQ(engine::simd::kernels().isa, detected);
}

TEST(SimdDispatch, EnvOverrideIsHonoured)
{
    EnvGuard guard("DTC_SIMD");
    guard.set("scalar");
    EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar);
    for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
        guard.set(engine::simd::isaName(isa));
        if (engine::simd::isaSupported(isa))
            EXPECT_EQ(engine::simd::activeIsa(), isa);
        else
            EXPECT_THROW(engine::simd::activeIsa(), DtcError);
    }
}

TEST(SimdDispatch, UnknownEnvValueRaisesTypedError)
{
    EnvGuard guard("DTC_SIMD");
    // A typo'd knob, or "off" (no such backend), must fail loudly.
    for (const char* bad : {"avx-512", "off"}) {
        guard.set(bad);
        try {
            engine::simd::activeIsa();
            FAIL() << "expected DtcError for " << bad;
        } catch (const DtcError& e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidInput);
            EXPECT_NE(std::string(e.what()).find("DTC_SIMD"),
                      std::string::npos);
        }
    }
}

TEST(SimdDispatch, ScopedModeOverridesEnvAndNests)
{
    EnvGuard guard("DTC_SIMD");
    guard.set("scalar");
    const Isa detected = engine::simd::detectedIsa();
    {
        ScopedSimdMode outer(detected);
        EXPECT_EQ(engine::simd::activeIsa(), detected);
        {
            ScopedSimdMode inner(Isa::Scalar);
            EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar);
        }
        EXPECT_EQ(engine::simd::activeIsa(), detected);
    }
    EXPECT_EQ(engine::simd::activeIsa(), Isa::Scalar); // env again
}

TEST(SimdDispatch, KernelsForUnavailableBackendRaises)
{
    for (Isa isa : {Isa::Avx2, Isa::Avx512}) {
        if (engine::simd::isaSupported(isa)) {
            EXPECT_EQ(engine::simd::kernelsFor(isa).isa, isa);
        } else {
            EXPECT_THROW(engine::simd::kernelsFor(isa), DtcError);
        }
    }
    EXPECT_EQ(engine::simd::kernelsFor(Isa::Scalar).isa, Isa::Scalar);
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
        EXPECT_EQ(engine::simd::isaFromName(engine::simd::isaName(isa)),
                  isa);
    EXPECT_FALSE(engine::simd::isaFromName("off").has_value());
}

TEST(PanelCols, OverridesResolveStrongestFirst)
{
    // Probe/default path: multiple of kJBlock inside the clamp.
    const int64_t base = engine::panelColsBase();
    EXPECT_GE(base, 64);
    EXPECT_LE(base, 4096);
    EXPECT_EQ(base % engine::kJBlock, 0);

    // A scoped override beats the probe, and nests.
    {
        engine::ScopedPanelCols pin(64);
        EXPECT_EQ(engine::panelColsBase(), 64);
        EXPECT_EQ(engine::panelCols(1000), 64);
        EXPECT_EQ(engine::panelCols(128), 128); // single panel
        {
            engine::ScopedPanelCols inner(128);
            EXPECT_EQ(engine::panelColsBase(), 128);
        }
        EXPECT_EQ(engine::panelColsBase(), 64);
    }
    EXPECT_EQ(engine::panelColsBase(), base);
}

} // namespace
} // namespace dtc
