/**
 * @file
 * Quickstart: the complete DTC-SpMM pipeline in ~60 lines of API.
 *
 *   1. build (or load) a sparse matrix,
 *   2. convert it to ME-TCF inside the DTC-SpMM kernel,
 *   3. let the simulation-based Selector pick base vs balanced,
 *   4. compute C = A * B functionally (TF32 numerics),
 *   5. verify against the reference and report simulated performance,
 *   6. do the same through the resilient runtime — the entry point a
 *      deployment actually calls (deadline, retry/reroute, guard).
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>

#include "common/rng.h"
#include "datasets/generators.h"
#include "gpusim/cost_model.h"
#include "kernels/dtc.h"
#include "kernels/reference.h"
#include "matrix/stats.h"
#include "runtime/runtime.h"

int
main()
{
    using namespace dtc;

    // 1. A synthetic GNN-style adjacency matrix: 4096 nodes in 16
    //    communities, ~40 neighbours per node, labels shuffled the
    //    way real-world node ids are.
    Rng rng(42);
    CsrMatrix a = shuffleLabels(
        genCommunity(4096, 16, 40.0, 0.9, rng), rng);
    std::printf("matrix: %s\n", computeStats(a).toString().c_str());

    // 2. Prepare the DTC-SpMM kernel: this converts A to ME-TCF.
    DtcKernel kernel; // default options = full DTC-SpMM, Auto mode
    const std::string err = kernel.prepare(a);
    if (!err.empty()) {
        std::printf("prepare failed: %s\n", err.c_str());
        return 1;
    }
    std::printf("ME-TCF: %lld TC blocks, MeanNnzTC=%.2f, index "
                "footprint %.1f%% of CSR\n",
                static_cast<long long>(kernel.meTcf().numTcBlocks()),
                kernel.meTcf().meanNnzTc(),
                100.0 *
                    static_cast<double>(
                        kernel.meTcf().indexElementCount()) /
                    static_cast<double>(a.indexElementCount()));

    // 3. The Selector decides the load-distribution strategy.
    const ArchSpec arch = ArchSpec::rtx4090();
    SelectorDecision d = kernel.decide(arch);
    std::printf("Selector: AR=%.2f -> %s kernel\n",
                d.approximationRatio,
                d.useBalanced ? "strict-balance" : "base");

    // 4. Compute C = A * B.
    const int64_t n = 128;
    DenseMatrix b(a.cols(), n), c(a.rows(), n);
    b.fillRandom(rng);
    kernel.compute(b, c);

    // 5. Verify against the TF32 reference (bit-exact) and the
    //    double-precision reference (tolerance), then report the
    //    simulated launch.
    DenseMatrix want_tf32(a.rows(), n), want_fp64(a.rows(), n);
    referenceSpmmRounded(a, b, want_tf32, Precision::Tf32);
    referenceSpmm(a, b, want_fp64);
    std::printf("verification: TF32 bit-exact=%s, max |err| vs fp64 "
                "reference=%.2e\n",
                c == want_tf32 ? "yes" : "NO",
                c.maxAbsDiff(want_fp64));

    CostModel cm(arch);
    LaunchResult r = kernel.cost(n, cm);
    std::printf("simulated on %s: %.3f ms, %.1f GFLOPS, TC pipe "
                "utilization %.1f%%, L2 hit rate %.1f%%\n",
                arch.name.c_str(), r.timeMs, r.gflops(),
                r.tcUtilPct, r.l2HitRate * 100.0);

    // 6. In a deployment you don't pick a kernel by hand: the
    //    resilient runtime tunes the whole registry, runs the winner
    //    under a deadline, retries transient failures, reroutes
    //    around persistent ones (circuit breaker), and spot-checks
    //    ~1% of output rows against a double-precision recompute.
    runtime::RuntimeOptions ropt;
    ropt.deadlineMs = 10000;        // or export DTC_DEADLINE_MS
    ropt.guard.sampleFraction = 0.01; // or export DTC_GUARD_SAMPLE
    runtime::Runtime rt(a, cm, std::move(ropt));
    runtime::RunReport rep;
    rt.run(b, c, &rep);
    std::printf("runtime: kernel=%s attempts=%d guard rows "
                "checked=%lld, max |err| vs fp64=%.2e\n",
                rep.kernel.c_str(), rep.attempts,
                static_cast<long long>(rep.guardRowsChecked),
                c.maxAbsDiff(want_fp64));
    return 0;
}
