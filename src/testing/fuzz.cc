#include "testing/fuzz.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/fault.h"
#include "common/fault_sites.h"
#include "common/rng.h"
#include "formats/serialize.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "matrix/mm_io.h"
#include "runtime/runtime.h"
#include "serve/prepared_cache.h"
#include "serve/service.h"
#include "testing/generators.h"
#include "testing/properties.h"

namespace dtc {
namespace testing {

namespace {

/** Stable stem for a dumped artifact. */
std::string
artifactStem(StructureFamily family, uint64_t seed,
             const OracleOutcome& o)
{
    std::ostringstream os;
    os << structureFamilyName(family) << "-s" << seed << "-k"
       << static_cast<int>(o.kind) << "-" << precisionName(o.precision)
       << "-" << engine::simd::isaName(o.isa) << "-t"
       << o.threads;
    return os.str();
}

void
logLine(const FuzzOptions& opt, const std::string& line)
{
    if (opt.log)
        *opt.log << line << "\n";
}

/**
 * One fault-contract run: executes @p body under an armed fault and
 * classifies the outcome.  @p body returns the failure description
 * from the oracle's judgement ("" = verified correct).
 */
void
faultRun(FuzzStats& stats, const FuzzOptions& opt,
         const std::string& what,
         const std::function<std::string()>& body)
{
    ++stats.faultRuns;
    try {
        const std::string verdict = body();
        if (!verdict.empty()) {
            ++stats.failures;
            stats.failureLines.push_back(
                "fault sweep [" + what +
                "]: silent corruption — " + verdict);
            logLine(opt, stats.failureLines.back());
        }
    } catch (const DtcError&) {
        // Typed error: the contract's happy unhappy-path.
    } catch (const std::exception& e) {
        ++stats.failures;
        stats.failureLines.push_back("fault sweep [" + what +
                                     "]: untyped exception — " +
                                     e.what());
        logLine(opt, stats.failureLines.back());
    }
}

} // namespace

std::string
FuzzStats::summary() const
{
    std::ostringstream os;
    os << cases << " cases, " << combos << " combos (" << passes
       << " pass, " << refusals << " refused), " << properties
       << " properties, " << faultRuns
       << " fault runs, " << failures << " failures";
    return os.str();
}

FuzzStats
fuzzOneCase(StructureFamily family, uint64_t seed,
            const FuzzOptions& opt)
{
    FuzzStats stats;
    stats.cases = 1;

    OracleCase c;
    c.a = generateStructure(family, seed, opt.scale);
    c.denseWidth = opt.denseWidth;
    c.seed = seed ^ 0xfeedface12345678ull;
    {
        std::ostringstream os;
        os << structureFamilyName(family) << " seed=" << seed
           << " scale=" << opt.scale;
        c.label = os.str();
    }

    const OracleReport report = runOracle(c, opt.oracle);
    stats.combos = report.combos();
    stats.passes = report.passes;
    stats.refusals = report.refusals;
    stats.failures = report.failures;
    if (report.ok()) {
        logLine(opt, c.label + ": " + report.summary());
        return stats;
    }

    // Shrink the first failing combo and dump a replayable artifact.
    const OracleOutcome& f = *report.firstFailure();
    const auto predicate = [&](const CsrMatrix& m) {
        return comboFails(f.kind, f.precision, f.isa, f.threads, m,
                          c.denseWidth, c.seed, opt.oracle.toleranceSafety);
    };
    const ShrinkResult shrunk =
        shrinkMatrix(c.a, predicate, opt.shrinkEvaluations);

    std::string fresh_detail;
    comboFails(f.kind, f.precision, f.isa, f.threads, shrunk.matrix,
               c.denseWidth, c.seed, opt.oracle.toleranceSafety,
               &fresh_detail);

    std::ostringstream line;
    line << c.label << ": " << f.describe() << " | shrunk to "
         << shrunk.matrix.rows() << "x" << shrunk.matrix.cols()
         << " nnz=" << shrunk.matrix.nnz() << " in "
         << shrunk.evaluations << " evals: " << fresh_detail;
    stats.failureLines.push_back(line.str());
    logLine(opt, line.str());

    if (!opt.corpusDir.empty()) {
        FailureArtifact info;
        info.family = structureFamilyName(family);
        info.structSeed = seed;
        info.scale = opt.scale;
        info.kind = f.kind;
        info.precision = f.precision;
        info.isa = f.isa;
        info.threads = f.threads;
        info.denseWidth = c.denseWidth;
        info.denseSeed = c.seed;
        info.detail = fresh_detail.empty() ? f.detail : fresh_detail;
        const std::string path = writeFailureArtifact(
            opt.corpusDir, artifactStem(family, seed, f),
            shrunk.matrix, info);
        logLine(opt, "  artifact: " + path);
    }
    return stats;
}

FuzzStats
runSmokeCampaign(const FuzzOptions& opt)
{
    FuzzStats stats;
    for (StructureFamily family : allStructureFamilies())
        for (uint64_t seed : opt.seeds)
            stats.absorb(fuzzOneCase(family, seed, opt));
    stats.absorb(runPropertySweep(opt));
    stats.absorb(runFaultSweep(opt));
    return stats;
}

FuzzStats
runTimedCampaign(const FuzzOptions& opt, double minutes,
                 uint64_t base_seed)
{
    FuzzStats stats;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(minutes * 60.0));
    uint64_t seed = base_seed;
    size_t family_idx = 0;
    const auto& families = allStructureFamilies();
    while (std::chrono::steady_clock::now() < deadline) {
        stats.absorb(
            fuzzOneCase(families[family_idx], seed, opt));
        family_idx = (family_idx + 1) % families.size();
        if (family_idx == 0)
            ++seed;
    }
    return stats;
}

FuzzStats
runSoakCampaign(const FuzzOptions& opt, int64_t rounds,
                uint64_t base_seed)
{
    FuzzStats stats;
    const CostModel cm(ArchSpec::rtx4090());
    const auto& families = allStructureFamilies();
    const std::vector<std::string>& sites = fault::allFaultSites();
    const ErrorCode codes[] = {ErrorCode::ResourceExhausted,
                               ErrorCode::Internal,
                               ErrorCode::CorruptData};
    for (int64_t round = 0; round < rounds; ++round) {
        // One independent seeded scenario per round: a structure
        // family, a fault site/ordinal/code, a deadline (counted in
        // cancellation polls, so the round terminates without any
        // wall-clock dependence), and the guard on or off.
        Rng r(base_seed + static_cast<uint64_t>(round) * 0x9e3779b9ull);
        const StructureFamily family =
            families[r.nextBounded(families.size())];
        const uint64_t seed = 1 + r.nextBounded(1u << 20);
        const std::string& site = sites[r.nextBounded(sites.size())];
        const int64_t nth =
            1 + static_cast<int64_t>(r.nextBounded(4));
        const ErrorCode code = codes[r.nextBounded(3)];
        runtime::RuntimeOptions ropt;
        ropt.deadlineMs = 0; // deterministic: polls, not wall-clock
        if (r.nextBounded(4) != 0)
            ropt.deadlineChecks =
                1 + static_cast<int64_t>(r.nextBounded(256));
        ropt.guard.sampleFraction =
            r.nextBounded(2) != 0 ? 0.05 : 0.0;

        std::ostringstream scen;
        scen << "soak round=" << round << " family="
             << structureFamilyName(family) << " seed=" << seed
             << " fault=" << site << ":" << nth << ":"
             << errorCodeName(code)
             << " deadlineChecks=" << ropt.deadlineChecks
             << " guard=" << ropt.guard.sampleFraction;

        ++stats.cases;
        ++stats.faultRuns;
        try {
            fault::ScopedFault f(site, nth, code);
            const CsrMatrix a =
                generateStructure(family, seed, opt.scale);
            const DenseMatrix b =
                makeDenseOperand(a.cols(), opt.denseWidth, seed);
            DenseMatrix c(a.rows(), b.cols());
            runtime::RunReport rep;
            runtime::Runtime rt(a, cm, ropt);
            rt.run(b, c, &rep);
            // The run completed, so the result must be correct: the
            // fault and the deadline may delay or reroute a request,
            // never corrupt it.
            const std::string verdict =
                judgeResult(a, b, c, rep.precision,
                            /*bit_exact=*/false,
                            /*tolerance_safety=*/8.0);
            if (verdict.empty()) {
                ++stats.passes;
                logLine(opt,
                        scen.str() + " -> ok kernel=" + rep.kernel);
            } else {
                ++stats.failures;
                stats.failureLines.push_back(
                    scen.str() + " -> silent corruption: " + verdict);
                logLine(opt, stats.failureLines.back());
            }
        } catch (const DtcError& e) {
            // A typed error is the contract's other legal outcome.
            ++stats.passes;
            logLine(opt, scen.str() + " -> typed " +
                             errorCodeName(e.code()));
        } catch (const std::exception& e) {
            ++stats.failures;
            stats.failureLines.push_back(
                scen.str() +
                " -> untyped exception: " + std::string(e.what()));
            logLine(opt, stats.failureLines.back());
        }
    }
    return stats;
}

FuzzStats
runServeSoakCampaign(const FuzzOptions& opt, int64_t rounds,
                     uint64_t base_seed)
{
    FuzzStats stats;
    const CostModel cm(ArchSpec::rtx4090());
    const auto& families = allStructureFamilies();
    const Precision precisions[] = {Precision::Fp32, Precision::Tf32,
                                    Precision::Fp16};
    const std::vector<std::string>& sites = fault::allFaultSites();
    const ErrorCode codes[] = {ErrorCode::ResourceExhausted,
                               ErrorCode::Internal,
                               ErrorCode::CorruptData};

    for (int64_t round = 0; round < rounds; ++round) {
        Rng r(base_seed +
              static_cast<uint64_t>(round) * 0x9e3779b97f4a7c15ull);

        // A small shared matrix pool: tenants resubmitting the same
        // contents is what exercises cache hits and coalesced
        // batches; a tight byte budget (sometimes) forces evictions
        // mid-traffic.
        const size_t pool_n = 2 + r.nextBounded(2);
        std::vector<CsrMatrix> pool;
        for (size_t i = 0; i < pool_n; ++i)
            pool.push_back(generateStructure(
                families[r.nextBounded(families.size())],
                1 + r.nextBounded(1u << 20), opt.scale));

        serve::ServeOptions so;
        so.threads = 1 + static_cast<int>(r.nextBounded(3));
        so.queueCapacity = 4 + static_cast<int64_t>(r.nextBounded(28));
        so.maxBatch = 1 + static_cast<int64_t>(r.nextBounded(8));
        so.deterministic = r.nextBounded(4) == 0;
        so.cacheBytes =
            r.nextBounded(3) == 0
                ? serve::PreparedCache::entryBytes(pool[0]) + 1
                : int64_t{64} << 20;
        so.runtime.guard.sampleFraction =
            r.nextBounded(2) != 0 ? 0.05 : 0.0;

        // Occasionally arm a fault for the whole round; arming is
        // thread-safe, and the contract below covers both outcomes.
        std::unique_ptr<fault::ScopedFault> armed;
        std::string fault_desc = "none";
        if (r.nextBounded(3) == 0) {
            const std::string& site =
                sites[r.nextBounded(sites.size())];
            const int64_t nth =
                1 + static_cast<int64_t>(r.nextBounded(4));
            const ErrorCode code = codes[r.nextBounded(3)];
            armed = std::make_unique<fault::ScopedFault>(site, nth,
                                                         code);
            fault_desc = site + ":" + std::to_string(nth) + ":" +
                         errorCodeName(code);
        }

        std::ostringstream scen;
        scen << "serve-soak round=" << round << " pool=" << pool_n
             << " threads=" << so.threads << " queue="
             << so.queueCapacity << " maxBatch=" << so.maxBatch
             << " det=" << so.deterministic << " fault="
             << fault_desc;
        ++stats.cases;

        // One issued request: the operands the judge needs plus the
        // future carrying the outcome.
        struct Issued
        {
            const CsrMatrix* a;
            DenseMatrix b;
            std::future<serve::SubmitResult> fut;
        };
        std::mutex imu;
        std::vector<Issued> issued;
        std::atomic<int64_t> typed_at_submit{0};
        std::atomic<int64_t> untyped_at_submit{0};

        {
            serve::SpmmService svc(so, &cm);
            const int clients = 2 + static_cast<int>(r.nextBounded(3));
            std::vector<std::thread> threads;
            for (int ci = 0; ci < clients; ++ci) {
                const uint64_t cseed =
                    r.next64() ^ (static_cast<uint64_t>(ci) << 32);
                threads.emplace_back([&, cseed]() {
                    Rng cr(cseed);
                    const int n =
                        2 + static_cast<int>(cr.nextBounded(5));
                    for (int i = 0; i < n; ++i) {
                        const CsrMatrix& a =
                            pool[cr.nextBounded(pool.size())];
                        DenseMatrix b = makeDenseOperand(
                            a.cols(), opt.denseWidth, cr.next64());
                        serve::SubmitOptions sub;
                        if (cr.nextBounded(4) == 0)
                            sub.deadlineMs =
                                1 + static_cast<int64_t>(
                                        cr.nextBounded(50));
                        const Precision p =
                            precisions[cr.nextBounded(3)];
                        DenseMatrix b_copy(b.rows(), b.cols());
                        std::copy(b.data(), b.data() + b.size(),
                                  b_copy.data());
                        try {
                            auto fut =
                                svc.submit(svc.attach(a),
                                           std::move(b_copy), p, sub);
                            std::lock_guard<std::mutex> lock(imu);
                            issued.push_back(
                                {&a, std::move(b), std::move(fut)});
                        } catch (const DtcError&) {
                            // Admission rejection (queue full) or a
                            // typed submit-path failure: legal.
                            typed_at_submit.fetch_add(1);
                        } catch (...) {
                            untyped_at_submit.fetch_add(1);
                        }
                    }
                });
            }
            for (std::thread& t : threads)
                t.join();
            svc.drain();
        }

        stats.passes += typed_at_submit.load();
        stats.combos += typed_at_submit.load();
        if (untyped_at_submit.load() != 0) {
            stats.failures += untyped_at_submit.load();
            stats.failureLines.push_back(
                scen.str() + " -> untyped exception at submit");
            logLine(opt, stats.failureLines.back());
        }

        for (Issued& iss : issued) {
            ++stats.combos;
            ++stats.faultRuns;
            try {
                serve::SubmitResult res = iss.fut.get();
                const std::string verdict = judgeResult(
                    *iss.a, iss.b, res.c, res.report.precision,
                    /*bit_exact=*/false, /*tolerance_safety=*/8.0);
                if (verdict.empty()) {
                    ++stats.passes;
                } else {
                    ++stats.failures;
                    stats.failureLines.push_back(
                        scen.str() +
                        " -> silent corruption: " + verdict);
                    logLine(opt, stats.failureLines.back());
                }
            } catch (const DtcError& e) {
                // Typed failure through the future (deadline,
                // exhausted reroute chain, injected fault): legal.
                ++stats.passes;
                logLine(opt, scen.str() + " -> typed " +
                                 errorCodeName(e.code()));
            } catch (const std::exception& e) {
                ++stats.failures;
                stats.failureLines.push_back(
                    scen.str() + " -> untyped exception: " +
                    std::string(e.what()));
                logLine(opt, stats.failureLines.back());
            }
        }
        logLine(opt, scen.str() + " -> " +
                         std::to_string(issued.size()) +
                         " served, " +
                         std::to_string(typed_at_submit.load()) +
                         " rejected typed");
    }
    return stats;
}

FuzzStats
runPropertySweep(const FuzzOptions& opt)
{
    FuzzStats stats;

    // A representative kernel slice: the paper's kernel at its target
    // precision, a CUDA-core baseline, and the deepest-pipelined TC
    // baseline.  The oracle already differentials every kernel; the
    // properties guard the *pipeline* (reorder, serialize), so a
    // slice keeps the sweep inside the smoke budget.
    struct Slice
    {
        KernelKind kind;
        Precision precision;
    };
    const std::vector<Slice> slice = {
        {KernelKind::Dtc, Precision::Tf32},
        {KernelKind::CuSparse, Precision::Fp32},
        {KernelKind::FlashLlmV2, Precision::Tf32},
    };
    const std::vector<ReorderMethod> methods = {
        ReorderMethod::Tca, ReorderMethod::Louvain,
        ReorderMethod::Metis};

    auto record = [&](const PropertyResult& r,
                      const std::string& what) {
        ++stats.properties;
        if (!r.passed) {
            ++stats.failures;
            stats.failureLines.push_back("property [" + what +
                                         "]: " + r.detail);
            logLine(opt, stats.failureLines.back());
        }
    };

    for (StructureFamily family : allStructureFamilies()) {
        const uint64_t seed = opt.seeds.empty() ? 1 : opt.seeds[0];
        const CsrMatrix a =
            generateStructure(family, seed, opt.scale);
        const uint64_t dense_seed = seed ^ 0xfeedface12345678ull;
        const std::string where =
            std::string(structureFamilyName(family)) + " seed=" +
            std::to_string(seed);
        ++stats.cases;

        for (const Slice& s : slice) {
            const std::string label =
                where + " " + kernelKindName(s.kind);
            record(checkLinearity(a, s.kind, s.precision,
                                  opt.denseWidth, dense_seed,
                                  opt.oracle.toleranceSafety),
                   label + " linearity");
            record(checkScalarScaling(a, s.kind, s.precision,
                                      opt.denseWidth, dense_seed),
                   label + " scalar-scaling");
            record(checkSerializeRoundTrip(a, s.kind, s.precision,
                                           opt.denseWidth,
                                           dense_seed),
                   label + " serialize-round-trip");
        }
        for (ReorderMethod method : methods)
            record(checkReorderInvariance(
                       a, method, KernelKind::Dtc, Precision::Tf32,
                       opt.denseWidth, dense_seed,
                       opt.oracle.toleranceSafety),
                   where + std::string(" reorder-invariance-") +
                       reorderMethodName(method));
    }
    return stats;
}

FuzzStats
runFaultSweep(const FuzzOptions& opt)
{
    FuzzStats stats;
    const CsrMatrix a =
        generateStructure(StructureFamily::PowerLaw, 7, 0);
    const DenseMatrix b =
        makeDenseOperand(a.cols(), opt.denseWidth, 7);

    const std::vector<ErrorCode> codes = {
        ErrorCode::ResourceExhausted, ErrorCode::CorruptData};
    const std::vector<int64_t> nths = {1, 2};

    // Kernel pipeline sites: SGT condensation, ME-TCF conversion and
    // the selector all run inside DtcKernel::prepare.
    for (const char* site : {"sgt.condense.chunk", "me_tcf.convert",
                             "selector.decide"})
        for (int64_t nth : nths)
            for (ErrorCode code : codes) {
                std::ostringstream what;
                what << site << ":" << nth << ":"
                     << errorCodeName(code);
                faultRun(stats, opt, what.str(), [&]() {
                    fault::ScopedFault guard(site, nth, code);
                    std::unique_ptr<SpmmKernel> kernel =
                        makeKernel(KernelKind::Dtc);
                    const Refusal r = kernel->prepare(a);
                    if (!r.ok())
                        return std::string(); // structured refusal
                    DenseMatrix got(a.rows(), b.cols());
                    kernel->compute(b, got);
                    return judgeResult(a, b, got, Precision::Tf32,
                                       /*bit_exact=*/true,
                                       opt.oracle.toleranceSafety);
                });
            }

    // Serialization site: load must throw or reproduce the matrix.
    for (int64_t nth : nths)
        for (ErrorCode code : codes) {
            std::ostringstream what;
            what << "serialize.read_array:" << nth << ":"
                 << errorCodeName(code);
            faultRun(stats, opt, what.str(), [&]() {
                std::stringstream io;
                saveCsr(io, a);
                fault::ScopedFault guard("serialize.read_array", nth,
                                         code);
                const CsrMatrix reloaded = loadCsr(io);
                return reloaded == a
                           ? std::string()
                           : std::string(
                                 "reloaded CSR differs from saved");
            });
        }

    // Matrix Market reader site.
    for (ErrorCode code : codes) {
        std::ostringstream what;
        what << "mm_io.read:1:" << errorCodeName(code);
        faultRun(stats, opt, what.str(), [&]() {
            std::stringstream io;
            writeMatrixMarket(io, a.toCoo());
            fault::ScopedFault guard("mm_io.read", 1, code);
            const CsrMatrix reloaded =
                CsrMatrix::fromCoo(readMatrixMarket(io));
            return reloaded == a
                       ? std::string()
                       : std::string(
                             "re-read matrix differs from written");
        });
    }
    return stats;
}

FuzzStats
replayCorpus(const std::string& dir, std::ostream* log)
{
    FuzzStats stats;
    for (const std::string& path : listCaseFiles(dir)) {
        ++stats.cases;
        ++stats.combos;
        std::string detail;
        const LoadedArtifact artifact = loadFailureArtifact(path);
        if (replayArtifact(artifact, &detail)) {
            ++stats.failures;
            stats.failureLines.push_back("corpus regression " + path +
                                         ": " + detail);
            if (log)
                *log << stats.failureLines.back() << "\n";
        } else {
            ++stats.passes;
            if (log)
                *log << path << ": pass\n";
        }
    }
    return stats;
}

std::vector<std::string>
listCaseFiles(const std::string& dir)
{
    std::vector<std::string> paths;
    if (!std::filesystem::is_directory(dir))
        return paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".case")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace testing
} // namespace dtc
