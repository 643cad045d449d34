/**
 * @file
 * Host-side microbenchmarks (google-benchmark): throughput of the
 * preprocessing stages a deployment actually runs on the CPU/GPU —
 * SGT condensation, ME-TCF/TCF conversion, MinHash signatures, the
 * L2 model, and the thread-block scheduler.  These are real
 * wall-clock numbers (unlike the simulated kernel results).
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/aligned.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"
#include "engine/spmm_csr.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "matrix/dense.h"
#include "datasets/generators.h"
#include "formats/me_tcf.h"
#include "formats/sgt.h"
#include "formats/tcf.h"
#include "gpusim/l2cache.h"
#include "gpusim/scheduler.h"
#include "obs/metrics.h"
#include "reorder/minhash.h"
#include "reorder/tca.h"
#include "runtime/guard.h"
#include "runtime/runtime.h"
#include "selector/selector.h"
#include "tuner/tuner.h"

namespace dtc {
namespace {

CsrMatrix&
benchMatrix()
{
    static CsrMatrix m = [] {
        Rng rng(1);
        return genCommunity(16384, 32, 24.0, 0.85, rng);
    }();
    return m;
}

void
BM_SgtCondense(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        SgtResult r = sgtCondense(m);
        benchmark::DoNotOptimize(r.numTcBlocks);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SgtCondense);

void
BM_MeTcfBuild(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        MeTcfMatrix t = MeTcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_MeTcfBuild);

void
BM_TcfBuild(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        TcfMatrix t = TcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_TcfBuild);

void
BM_MinhashSignatures(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    const int hashes = static_cast<int>(state.range(0));
    MinHasher hasher(hashes, 42);
    std::vector<uint32_t> sig(static_cast<size_t>(hashes));
    for (auto _ : state) {
        for (int64_t r = 0; r < m.rows(); r += 16) {
            hasher.signature(
                m.colIdx().data() + m.rowPtr()[r],
                m.colIdx().data() + m.rowPtr()[r + 1], sig.data());
        }
        benchmark::DoNotOptimize(sig[0]);
    }
}
BENCHMARK(BM_MinhashSignatures)->Arg(16)->Arg(32);

void
BM_L2CacheAccess(benchmark::State& state)
{
    L2Cache cache(48ll << 20, 16, 512);
    Rng rng(7);
    std::vector<uint64_t> lines(1 << 16);
    for (auto& l : lines)
        l = rng.nextZipf(1 << 18, 1.1);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.accessLine(lines[i++ & (lines.size() - 1)]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2CacheAccess);

void
BM_Scheduler(benchmark::State& state)
{
    Rng rng(9);
    std::vector<double> tbs(static_cast<size_t>(state.range(0)));
    for (auto& t : tbs)
        t = 100.0 + static_cast<double>(rng.nextBounded(1000));
    for (auto _ : state) {
        ScheduleResult r = scheduleThreadBlocks(tbs, 128, 6);
        benchmark::DoNotOptimize(r.makespanCycles);
    }
    state.SetItemsProcessed(state.iterations() * tbs.size());
}
BENCHMARK(BM_Scheduler)->Arg(1024)->Arg(65536);

// ---- threads=1 vs threads=N sweeps of the parallelized hot paths.
// The matrix has >= 100k nnz; results are bitwise identical across
// thread counts (see tests/test_parallel_equivalence.cc), so these
// rows isolate the wall-clock effect of the parallel runtime.

void
BM_SgtCondenseThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        SgtResult r = sgtCondense(m);
        benchmark::DoNotOptimize(r.numTcBlocks);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SgtCondenseThreads)->Arg(1)->Arg(8);

void
BM_MeTcfBuildThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        MeTcfMatrix t = MeTcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_MeTcfBuildThreads)->Arg(1)->Arg(8);

void
BM_ReferenceSpmmThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    static DenseMatrix b = [&] {
        Rng rng(3);
        DenseMatrix d(m.cols(), 32);
        d.fillRandom(rng);
        return d;
    }();
    DenseMatrix c(m.rows(), 32);
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        referenceSpmm(m, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * 32);
}
BENCHMARK(BM_ReferenceSpmmThreads)->Arg(1)->Arg(8);

void
BM_MinhashSignatureBatchThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    MinHasher hasher(32, 42);
    std::vector<uint32_t> sigs(static_cast<size_t>(m.rows()) * 32);
    auto row_set = [&](int64_t r) {
        return std::pair<const int32_t*, const int32_t*>(
            m.colIdx().data() + m.rowPtr()[r],
            m.colIdx().data() + m.rowPtr()[r + 1]);
    };
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        hasher.signatureBatch(m.rows(), row_set, sigs.data());
        benchmark::DoNotOptimize(sigs[0]);
    }
    state.SetItemsProcessed(state.iterations() * m.rows());
}
BENCHMARK(BM_MinhashSignatureBatchThreads)->Arg(1)->Arg(8);

void
BM_TraceScopeDisarmed(benchmark::State& state)
{
    // The cost a DTC_TRACE_SCOPE adds to a hot path while tracing is
    // off: one relaxed atomic load and a predicted branch per
    // construction — no clock read, no allocation.  This row backs
    // the "near-zero overhead when disarmed" claim in README, the
    // same way BM_FaultPointDisarmed does for fault points.
    obs::trace::disable();
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            DTC_TRACE_SCOPE("bench.disarmed");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TraceScopeDisarmed);

void
BM_FaultPointDisarmed(benchmark::State& state)
{
    // The cost a DTC_FAULT_POINT adds to a hot path while no fault is
    // armed: one relaxed atomic load and a predicted branch.  This
    // row backs the "zero-cost when disarmed" claim in README.
    fault::disarmAll();
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            DTC_FAULT_POINT("bench.disarmed");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FaultPointDisarmed);

// ---- Sweeps of the host execution engine (src/engine/):
// pre-rounded B panels, column-panel tiling and flat index lanes.  The
// engine is every kernel's only path; the --smoke rows below compare
// it with the naive reference.  Arg: dense width N.

void
BM_DtcComputeEngine(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    static std::unique_ptr<SpmmKernel> kernel = [&] {
        auto k = makeKernel(KernelKind::Dtc);
        k->prepare(m);
        return k;
    }();
    const int64_t n = state.range(0);
    Rng rng(3);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), n);
    engine::clearPreparedDenseCache();
    for (auto _ : state) {
        kernel->compute(b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * n);
}
BENCHMARK(BM_DtcComputeEngine)->Arg(32)->Arg(128)->Arg(512);

/** The engine's CSR driver at TF32. */
void
BM_SpmmCsrRoundedEngine(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    const int64_t n = state.range(0);
    Rng rng(3);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), n);
    engine::clearPreparedDenseCache();
    for (auto _ : state) {
        engine::spmmCsrRounded(m.rows(), m.rowPtr().data(),
                               m.colIdx().data(), m.values().data(),
                               Precision::Tf32, b, c, 64);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * n);
}
BENCHMARK(BM_SpmmCsrRoundedEngine)->Arg(32)->Arg(128)->Arg(512);

// ---- Scalar vs vector sweeps of the micro-kernel backend
// (src/engine/simd/).  Args: {N, simd}: simd 0 runs Isa::Scalar, the
// portable baseline, and 1 the host's detected ISA.  Outputs are
// bitwise identical (tests/test_simd.cc), so these rows isolate the
// vectorization win.

engine::simd::Isa
benchIsa(int64_t simd_on)
{
    return simd_on != 0 ? engine::simd::detectedIsa()
                        : engine::simd::Isa::Scalar;
}

void
BM_DtcComputeSimd(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    static std::unique_ptr<SpmmKernel> kernel = [&] {
        auto k = makeKernel(KernelKind::Dtc);
        k->prepare(m);
        return k;
    }();
    const int64_t n = state.range(0);
    engine::simd::ScopedSimdMode simd(benchIsa(state.range(1)));
    Rng rng(3);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), n);
    engine::clearPreparedDenseCache();
    for (auto _ : state) {
        kernel->compute(b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * n);
}
BENCHMARK(BM_DtcComputeSimd)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void
BM_RoundPanelSimd(benchmark::State& state)
{
    const int64_t n = state.range(0);
    const engine::simd::Kernels& K =
        engine::simd::kernelsFor(benchIsa(state.range(1)));
    Rng rng(13);
    AlignedVector<float> in(static_cast<size_t>(n));
    AlignedVector<float> out(static_cast<size_t>(n));
    for (auto& x : in)
        x = rng.nextFloat(-1.0f, 1.0f);
    for (auto _ : state) {
        K.roundPanel(out.data(), in.data(), n, Precision::Tf32);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RoundPanelSimd)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void
BM_RuntimeGuardOverhead(benchmark::State& state)
{
    // The online-guard tax on Runtime::run.  Arg(0): guard disabled —
    // the per-run probe is one relaxed atomic load (guard::enabled),
    // so this row should track the bare kernel row.  Arg(1): the
    // default 1% row sample, whose cost is the quantity README's
    // "Resilient runtime" section cites.
    static CsrMatrix m = [] {
        Rng rng(5);
        return genCommunity(4096, 16, 16.0, 0.85, rng);
    }();
    static const CostModel cm(ArchSpec::rtx4090());
    runtime::RuntimeOptions opt;
    opt.guard.sampleFraction = state.range(0) != 0 ? 0.01 : 0.0;
    runtime::Runtime rt(m, cm, std::move(opt));
    Rng rng(3);
    DenseMatrix b(m.cols(), 32);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), 32);
    for (auto _ : state) {
        rt.run(b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * 32);
}
BENCHMARK(BM_RuntimeGuardOverhead)->Arg(0)->Arg(1);

void
BM_SelectorDecision(benchmark::State& state)
{
    static MeTcfMatrix t = MeTcfMatrix::build(benchMatrix());
    const ArchSpec arch = ArchSpec::rtx4090();
    for (auto _ : state) {
        SelectorDecision d = selectKernel(t, arch);
        benchmark::DoNotOptimize(d.approximationRatio);
    }
}
BENCHMARK(BM_SelectorDecision);

} // namespace

// ---- `--smoke` mode: a fast, self-validating engine-vs-naive
// comparison that writes machine-readable BENCH_engine.json.  Run by
// the `bench_smoke` ctest so the schema and the engine's win on
// rounding work stay checked on every build.

namespace {

struct SmokeRow
{
    const char* kernel;
    int64_t n;
    double offMs;
    double onMs;
    uint64_t legacyBRoundOps; ///< reps * nnz * N (per-use rounding).
    uint64_t engineBRoundOps; ///< measured: K * N once per cache fill.
};

/**
 * One engine row: "off" is @p naive_ms, the same product computed by
 * the naive reference (which rounds every B operand where it is used,
 * reps * nnz * N roundings: legacy_b_round_ops), and "on" times @p fn
 * from a cold PreparedDense cache, so the one-time panel rounding is
 * billed to the engine.  Reads the engine counters as before/after
 * deltas instead of resetting them, so the cumulative totals survive
 * into the metrics snapshot this binary writes in --smoke mode.
 */
template <typename F>
SmokeRow
smokeCompare(const char* kernel_name, const CsrMatrix& m, int64_t n,
             int reps, double naive_ms, F&& fn)
{
    SmokeRow row;
    row.kernel = kernel_name;
    row.n = n;
    row.offMs = naive_ms;
    engine::clearPreparedDenseCache();
    const uint64_t round0 = engine::stats().roundingOps.load();
    row.onMs = bench::timedMs(reps, fn);
    row.engineBRoundOps = engine::stats().roundingOps.load() - round0;
    row.legacyBRoundOps = static_cast<uint64_t>(reps) *
                          static_cast<uint64_t>(m.nnz()) *
                          static_cast<uint64_t>(n);
    return row;
}

/**
 * Scalar vs SIMD timing in the engine-row shape: "off" runs
 * Isa::Scalar, the portable baseline, and "on" the host's detected
 * ISA backend.  The rounding-op columns do not apply; both are 0.
 */
template <typename F>
SmokeRow
simdSmokeCompare(const char* kernel_name, int64_t n, int reps, F&& fn)
{
    SmokeRow row;
    row.kernel = kernel_name;
    row.n = n;
    row.legacyBRoundOps = 0;
    row.engineBRoundOps = 0;
    {
        engine::simd::ScopedSimdMode simd(engine::simd::Isa::Scalar);
        engine::clearPreparedDenseCache();
        fn(); // warm-up: touch B/C pages, fill the panel cache
        row.offMs = bench::timedMs(reps, fn);
    }
    {
        engine::simd::ScopedSimdMode simd(
            engine::simd::detectedIsa());
        engine::clearPreparedDenseCache();
        fn();
        row.onMs = bench::timedMs(reps, fn);
    }
    return row;
}

/**
 * Guard-off vs guard-on timing of Runtime::run, reported in the same
 * row shape as the engine rows (off = guard disabled, on = the
 * default 1% sample) so bench_compare gates the guard tax alongside
 * the engine wins.  The rounding-op columns do not apply; both are 0.
 */
SmokeRow
runtimeGuardSmoke(const CsrMatrix& m, int64_t n, int reps)
{
    SmokeRow row;
    row.kernel = "Runtime::run guard_off_on";
    row.n = n;
    row.legacyBRoundOps = 0;
    row.engineBRoundOps = 0;
    const CostModel cm(ArchSpec::rtx4090());
    Rng brng(static_cast<uint64_t>(n) + 1);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(brng);
    DenseMatrix c(m.rows(), n);
    {
        runtime::RuntimeOptions opt;
        opt.guard.sampleFraction = 0.0;
        runtime::Runtime rt(m, cm, std::move(opt));
        rt.run(b, c); // warm-up: prepare the winning kernel
        row.offMs = bench::timedMs(reps, [&] { rt.run(b, c); });
    }
    {
        runtime::RuntimeOptions opt;
        opt.guard.sampleFraction = 0.01;
        runtime::Runtime rt(m, cm, std::move(opt));
        rt.run(b, c);
        row.onMs = bench::timedMs(reps, [&] { rt.run(b, c); });
    }
    return row;
}

/** Minimal structural check of the file runEngineSmoke just wrote. */
bool
validateBenchJson(const std::string& path, size_t expect_rows)
{
    std::ifstream in(path);
    if (!in)
        return false;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (text.find("\"schema\": \"dtc-bench-engine-v1\"") ==
        std::string::npos)
        return false;
    size_t rows = 0;
    for (size_t pos = text.find("\"kernel\":");
         pos != std::string::npos;
         pos = text.find("\"kernel\":", pos + 1))
        rows++;
    if (rows != expect_rows)
        return false;
    for (const char* key : {"\"engine_off_ms\":", "\"engine_on_ms\":",
                            "\"legacy_b_round_ops\":",
                            "\"engine_b_round_ops\":"}) {
        size_t found = 0;
        for (size_t pos = text.find(key); pos != std::string::npos;
             pos = text.find(key, pos + 1)) {
            const double v =
                std::strtod(text.c_str() + pos + std::strlen(key),
                            nullptr);
            if (!(v >= 0.0))
                return false;
            found++;
        }
        if (found != expect_rows)
            return false;
    }
    return true;
}

} // namespace

namespace {

/**
 * Runs each preprocessing phase of the pipeline once over the smoke
 * matrix so the --smoke trace/metrics cover the full span set
 * (sgt.condense, metcf.convert, tca.reorder, tuner.tune,
 * selector.decide) and not only the kernel prepare/compute path.
 */
void
runPipelinePhases(const CsrMatrix& m)
{
    DTC_TRACE_SCOPE("smoke.pipeline");
    const SgtResult sgt = sgtCondense(m);
    const MeTcfMatrix metcf = MeTcfMatrix::build(m);
    TcaParams tca_params;
    tca_params.numHashes = 16; // smoke-sized, still exercises LSH
    const TcaResult tca = tcaReorder(m, tca_params);
    const CostModel cm(ArchSpec::rtx4090());
    TuneRequest req;
    req.denseWidth = 32;
    const TuneResult tuned = tuneSpmm(m, req, cm);
    const SelectorDecision decision =
        selectKernel(metcf, ArchSpec::rtx4090());
    std::printf("smoke: pipeline tc_blocks=%lld clusters=%lld "
                "tuner_best=%s selector_ar=%.3f\n",
                static_cast<long long>(sgt.numTcBlocks),
                static_cast<long long>(tca.numClusters),
                tuned.best().name.c_str(),
                decision.approximationRatio);
}

} // namespace

int
runEngineSmoke(const std::string& out_path,
               const std::string& metrics_path)
{
    // Pin the SIMD backend to the detected ISA for the whole smoke
    // run, so the engine columns time the same backend whatever
    // DTC_SIMD says (the CI DTC_SIMD=scalar leg runs this binary
    // too).  The simd_off_on rows below still force Isa::Scalar
    // locally for their "off" column.
    engine::simd::ScopedSimdMode simd_pin(
        engine::simd::detectedIsa());
    Rng rng(1);
    const CsrMatrix m = genCommunity(4096, 16, 16.0, 0.85, rng);
    runPipelinePhases(m);
    auto dtc_kernel = makeKernel(KernelKind::Dtc);
    if (!dtc_kernel->prepare(m).empty()) {
        std::fprintf(stderr, "smoke: DTC prepare() refused\n");
        return 1;
    }

    const int64_t widths[] = {32, 128, 512};
    const int reps = 3;
    std::vector<SmokeRow> rows;
    for (int64_t n : widths) {
        Rng brng(static_cast<uint64_t>(n));
        DenseMatrix b(m.cols(), n);
        b.fillRandom(brng);
        DenseMatrix c(m.rows(), n);
        const auto naive = [&] {
            referenceSpmmRounded(m, b, c, Precision::Tf32);
        };
        naive(); // warm-up: touch B/C pages once
        const double naive_ms = bench::timedMs(reps, naive);
        rows.push_back(smokeCompare(
            "DtcKernel::compute", m, n, reps, naive_ms,
            [&] { dtc_kernel->compute(b, c); }));
        rows.push_back(smokeCompare(
            "engine::spmmCsrRounded", m, n, reps, naive_ms, [&] {
                engine::spmmCsrRounded(m.rows(), m.rowPtr().data(),
                                       m.colIdx().data(),
                                       m.values().data(),
                                       Precision::Tf32, b, c, 64);
            }));
    }
    // SIMD rows: Isa::Scalar vs the detected ISA on an L2-resident
    // shape of full 16x8 blocks.  The axpy-bound rows are
    // load/store-bound, so the vector win concentrates in roundPanel.
    {
        Rng srng(2);
        const CsrMatrix md = genBlockDiagonal(1024, 16, 1.0, srng);
        auto dense_kernel = makeKernel(KernelKind::Dtc);
        if (!dense_kernel->prepare(md).empty()) {
            std::fprintf(stderr,
                         "smoke: DTC prepare() refused dense blocks\n");
            return 1;
        }
        Rng brng(128);
        DenseMatrix b(md.cols(), 128);
        b.fillRandom(brng);
        DenseMatrix c(md.rows(), 128);
        const int simd_reps = 30;
        rows.push_back(simdSmokeCompare(
            "DtcKernel::compute simd_off_on", 128, simd_reps,
            [&] { dense_kernel->compute(b, c); }));
        rows.push_back(simdSmokeCompare(
            "engine::spmmCsrRounded simd_off_on", 128, simd_reps, [&] {
                engine::spmmCsrRounded(md.rows(), md.rowPtr().data(),
                                       md.colIdx().data(),
                                       md.values().data(),
                                       Precision::Tf32, b, c, 64);
            }));
    }
    {
        // Raw rounding micro-kernel: one 512-wide panel's worth of
        // B per call, the PreparedDense hot loop.
        const int64_t elems = m.cols() * 512;
        Rng prng(512);
        AlignedVector<float> pin(static_cast<size_t>(elems));
        AlignedVector<float> pout(static_cast<size_t>(elems));
        for (auto& x : pin)
            x = prng.nextFloat(-1.0f, 1.0f);
        SmokeRow row;
        row.kernel = "simd::roundPanel simd_off_on";
        row.n = 512;
        row.legacyBRoundOps = 0;
        row.engineBRoundOps = 0;
        const int round_reps = 20;
        {
            const engine::simd::Kernels& K =
                engine::simd::kernelsFor(engine::simd::Isa::Scalar);
            row.offMs = bench::timedMs(round_reps, [&] {
                K.roundPanel(pout.data(), pin.data(), elems,
                             Precision::Tf32);
            });
        }
        {
            const engine::simd::Kernels& K = engine::simd::kernels();
            row.onMs = bench::timedMs(round_reps, [&] {
                K.roundPanel(pout.data(), pin.data(), elems,
                             Precision::Tf32);
            });
        }
        rows.push_back(row);
    }
    // Resilient-runtime row: the guard tax, gated like the rest.
    rows.push_back(runtimeGuardSmoke(m, 32, reps));

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "smoke: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    char buf[256];
    out << "{\n  \"schema\": \"dtc-bench-engine-v1\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"matrix\": {\"rows\": %lld, \"cols\": %lld, "
                  "\"nnz\": %lld},\n  \"reps\": %d,\n",
                  static_cast<long long>(m.rows()),
                  static_cast<long long>(m.cols()),
                  static_cast<long long>(m.nnz()), reps);
    out << buf << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const SmokeRow& r = rows[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"kernel\": \"%s\", \"n\": %lld, "
            "\"engine_off_ms\": %.4f, \"engine_on_ms\": %.4f, "
            "\"speedup\": %.3f, \"legacy_b_round_ops\": %llu, "
            "\"engine_b_round_ops\": %llu}%s\n",
            r.kernel, static_cast<long long>(r.n), r.offMs, r.onMs,
            r.onMs > 0.0 ? r.offMs / r.onMs : 0.0,
            static_cast<unsigned long long>(r.legacyBRoundOps),
            static_cast<unsigned long long>(r.engineBRoundOps),
            i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    out.close();

    if (!validateBenchJson(out_path, rows.size())) {
        std::fprintf(stderr, "smoke: %s failed schema validation\n",
                     out_path.c_str());
        return 1;
    }

    std::printf("%-22s %6s %14s %13s %9s %13s\n", "kernel", "n",
                "engine_off_ms", "engine_on_ms", "speedup",
                "b_round_ops");
    for (const SmokeRow& r : rows) {
        std::printf("%-22s %6lld %14.4f %13.4f %8.2fx %5.1fx fewer\n",
                    r.kernel, static_cast<long long>(r.n), r.offMs,
                    r.onMs, r.onMs > 0.0 ? r.offMs / r.onMs : 0.0,
                    r.engineBRoundOps > 0
                        ? static_cast<double>(r.legacyBRoundOps) /
                              static_cast<double>(r.engineBRoundOps)
                        : 0.0);
    }
    std::printf("smoke: wrote %s (validated)\n", out_path.c_str());

    if (!metrics_path.empty()) {
        if (!obs::metrics::writeJson(metrics_path)) {
            std::fprintf(stderr, "smoke: cannot write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("smoke: wrote %s\n", metrics_path.c_str());
    }
    return 0;
}

} // namespace dtc

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out = "BENCH_engine.json";
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (arg == "--metrics-out" && i + 1 < argc)
            metrics_out = argv[++i];
    }
    if (smoke)
        return dtc::runEngineSmoke(out, metrics_out);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
