#include "testing/oracle.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "kernels/reference.h"

namespace dtc {
namespace testing {

namespace {

uint32_t
floatBits(float x)
{
    uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

/**
 * Per-case precomputed references: the double-accumulation ground
 * truth, per-row |A| sums for the error bound, and lazily one rounded
 * reference per precision.  The references are the naive loops of
 * kernels/reference.h, so no combo's ISA or thread count reaches them.
 */
struct CaseRefs
{
    const CsrMatrix& a;
    const DenseMatrix& b;
    DenseMatrix refDouble;
    std::vector<double> rowAbsSum;
    double maxAbsB = 0.0;
    std::map<Precision, DenseMatrix> refRounded;

    CaseRefs(const CsrMatrix& a_in, const DenseMatrix& b_in)
        : a(a_in), b(b_in), refDouble(a_in.rows(), b_in.cols()),
          rowAbsSum(static_cast<size_t>(a_in.rows()), 0.0)
    {
        referenceSpmm(a, b, refDouble);
        for (int64_t r = 0; r < a.rows(); ++r)
            for (int64_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1];
                 ++k)
                rowAbsSum[static_cast<size_t>(r)] +=
                    std::fabs(static_cast<double>(a.values()[k]));
        for (size_t i = 0; i < b.size(); ++i)
            maxAbsB = std::max(
                maxAbsB, std::fabs(static_cast<double>(b.data()[i])));
    }

    const DenseMatrix&
    rounded(Precision p)
    {
        auto it = refRounded.find(p);
        if (it == refRounded.end()) {
            DenseMatrix ref(a.rows(), b.cols());
            referenceSpmmRounded(a, b, ref, p);
            it = refRounded.emplace(p, std::move(ref)).first;
        }
        return it->second;
    }
};

/** Core judgement against precomputed references. */
std::string
judgeAgainst(CaseRefs& refs, const DenseMatrix& got, Precision p,
             bool bit_exact, double safety)
{
    const CsrMatrix& a = refs.a;
    const DenseMatrix& b = refs.b;
    std::ostringstream os;
    if (got.rows() != a.rows() || got.cols() != b.cols()) {
        os << "mis-sized output: got " << got.rows() << "x"
           << got.cols() << ", want " << a.rows() << "x" << b.cols();
        return os.str();
    }

    // (a) precision-aware tolerance vs the double-accumulation truth
    // (bound shared with the runtime guard — see reference.h).
    for (int64_t r = 0; r < a.rows(); ++r) {
        const int64_t len = a.rowPtr()[r + 1] - a.rowPtr()[r];
        const double tol = spmmRowErrorBound(
            p, len, refs.rowAbsSum[static_cast<size_t>(r)],
            refs.maxAbsB, safety);
        for (int64_t j = 0; j < b.cols(); ++j) {
            const double g = got.at(r, j);
            const double want = refs.refDouble.at(r, j);
            if (!(std::fabs(g - want) <= tol)) { // catches NaN too
                os << "value out of tolerance at (" << r << "," << j
                   << "): got " << g << ", want " << want
                   << " +- " << tol << " (row len " << len << ", "
                   << precisionName(p) << ")";
                return os.str();
            }
        }
    }

    // (b) bit-level agreement with the rounded-operand reference.
    if (bit_exact) {
        const DenseMatrix& ref = refs.rounded(p);
        for (int64_t r = 0; r < got.rows(); ++r)
            for (int64_t j = 0; j < got.cols(); ++j)
                if (floatBits(got.at(r, j)) !=
                    floatBits(ref.at(r, j))) {
                    os << "bit mismatch at (" << r << "," << j
                       << "): got " << got.at(r, j) << ", want "
                       << ref.at(r, j) << " ("
                       << precisionName(p) << " rounded reference)";
                    return os.str();
                }
    }
    return std::string();
}

OracleOutcome
judgeCombo(CaseRefs& refs, KernelKind kind, Precision p,
           engine::simd::Isa isa, int threads, const OracleConfig& cfg)
{
    OracleOutcome out;
    out.kind = kind;
    out.precision = p;
    out.isa = isa;
    out.threads = threads;

    std::unique_ptr<SpmmKernel> kernel = makeKernelAt(kind, p);
    DTC_CHECK(kernel != nullptr);
    engine::simd::ScopedSimdMode sm(isa);
    ScopedNumThreads nt(threads);
    try {
        const Refusal r = kernel->prepare(refs.a);
        if (!r.ok()) {
            out.status = OracleOutcome::Status::Refused;
            out.detail = r.reason;
            return out;
        }
        DenseMatrix got(refs.a.rows(), refs.b.cols());
        // Sentinel-fill: a kernel that forgets a row (or writes the
        // wrong shape's worth of data) leaves NaNs the tolerance
        // check rejects.
        got.fill(std::numeric_limits<float>::quiet_NaN());
        kernel->compute(refs.b, got);
        const bool bit_exact = kernelTraits(kind).bitExactRounded;
        out.detail = judgeAgainst(refs, got, p, bit_exact,
                                  cfg.toleranceSafety);
        if (!out.detail.empty()) {
            out.status = OracleOutcome::Status::Failed;
            return out;
        }
        if (cfg.checkCost) {
            const CostModel cm(ArchSpec::rtx4090());
            const LaunchResult lr =
                kernel->cost(refs.b.cols(), cm);
            if (!(lr.timeMs >= 0.0) ||
                !std::isfinite(lr.timeMs)) {
                out.status = OracleOutcome::Status::Failed;
                std::ostringstream os;
                os << "cost() returned invalid timeMs " << lr.timeMs;
                out.detail = os.str();
                return out;
            }
        }
        out.status = OracleOutcome::Status::Pass;
    } catch (const std::exception& e) {
        out.status = OracleOutcome::Status::Failed;
        out.detail = std::string("exception: ") + e.what();
    }
    return out;
}

} // namespace

OracleConfig
OracleConfig::single(KernelKind kind, Precision p,
                     engine::simd::Isa isa, int threads)
{
    OracleConfig cfg;
    cfg.kernels = {kind};
    cfg.precisions = {p};
    cfg.isas = {isa};
    cfg.threadCounts = {threads};
    return cfg;
}

std::string
OracleOutcome::describe() const
{
    std::ostringstream os;
    os << kernelKindName(kind) << " @" << precisionName(precision)
       << " isa=" << engine::simd::isaName(isa) << " threads="
       << threads;
    switch (status) {
      case Status::Pass:
        os << ": pass";
        break;
      case Status::Refused:
        os << ": refused";
        break;
      case Status::Failed:
        os << ": FAILED";
        break;
    }
    if (!detail.empty())
        os << " — " << detail;
    return os.str();
}

const OracleOutcome*
OracleReport::firstFailure() const
{
    for (const OracleOutcome& o : outcomes)
        if (o.status == OracleOutcome::Status::Failed)
            return &o;
    return nullptr;
}

std::string
OracleReport::summary() const
{
    std::ostringstream os;
    os << combos() << " combos: " << passes << " pass, " << refusals
       << " refused, " << failures << " FAILED";
    return os.str();
}

DenseMatrix
makeDenseOperand(int64_t rows, int64_t cols, uint64_t seed)
{
    DenseMatrix b(rows, cols);
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull);
    b.fillRandom(rng, -1.0f, 1.0f);
    return b;
}

OracleReport
runOracle(const OracleCase& c, const OracleConfig& cfg)
{
    DTC_CHECK_MSG(c.denseWidth >= 0,
                  "denseWidth must be >= 0, got " << c.denseWidth);
    const DenseMatrix b =
        makeDenseOperand(c.a.cols(), c.denseWidth, c.seed);
    CaseRefs refs(c.a, b);

    const std::vector<KernelKind> kinds =
        cfg.kernels.empty() ? allKernelKinds() : cfg.kernels;

    OracleReport report;
    for (KernelKind kind : kinds)
        for (Precision p : cfg.precisions) {
            if (!kernelSupportsPrecision(kind, p))
                continue;
            for (engine::simd::Isa isa : cfg.isas)
                for (int threads : cfg.threadCounts) {
                    OracleOutcome out = judgeCombo(refs, kind, p, isa,
                                                   threads, cfg);
                    switch (out.status) {
                      case OracleOutcome::Status::Pass:
                        ++report.passes;
                        break;
                      case OracleOutcome::Status::Refused:
                        ++report.refusals;
                        break;
                      case OracleOutcome::Status::Failed:
                        ++report.failures;
                        break;
                    }
                    report.outcomes.push_back(std::move(out));
                }
        }
    return report;
}

bool
comboFails(KernelKind kind, Precision p, engine::simd::Isa isa,
           int threads, const CsrMatrix& a, int64_t dense_width,
           uint64_t seed, double tolerance_safety, std::string* detail)
{
    OracleCase c;
    c.a = a;
    c.denseWidth = dense_width;
    c.seed = seed;
    OracleConfig cfg = OracleConfig::single(kind, p, isa, threads);
    cfg.toleranceSafety = tolerance_safety;
    const OracleReport report = runOracle(c, cfg);
    const OracleOutcome* failure = report.firstFailure();
    if (detail)
        *detail = failure ? failure->detail : std::string();
    return failure != nullptr;
}

std::string
judgeResult(const CsrMatrix& a, const DenseMatrix& b,
            const DenseMatrix& got, Precision p, bool bit_exact,
            double tolerance_safety)
{
    CaseRefs refs(a, b);
    return judgeAgainst(refs, got, p, bit_exact, tolerance_safety);
}

} // namespace testing
} // namespace dtc
