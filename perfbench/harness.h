/**
 * @file
 * Shared types of the repository benchmark (perfbench/).
 *
 * The benchmark drives the dtcspmm library only through its public
 * headers, from one process and one thread: the library's thread
 * count is pinned to 1, SpmmService runs in deterministic (inline)
 * mode, one call is in flight at a time, and every input is generated
 * from the workload seed before the timed calls.
 *
 * A workload is a Workload subclass.  The main program (bench.cc) times
 * set-up, then calls step() until the measurement window closes; each
 * step makes exactly one timed library call, checks its outputs
 * outside the timed region, and appends a CallRecord.
 */
#ifndef DTC_PERFBENCH_HARNESS_H
#define DTC_PERFBENCH_HARNESS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/precision.h"

namespace dtc {
namespace perfbench {

/** What one timed call was. */
enum class CallKind
{
    Single, ///< SpmmService::submit(...).get()
    Burst,  ///< SpmmService::runBatch over same-A panels
    Epoch,  ///< GcnModel::trainStep
};

/**
 * Library counters the layer analysis reads, sampled around each
 * timed call so that the benchmark's own checks (which also call the
 * library's reference SpMM) never leak into the deltas.
 */
struct Counters
{
    static constexpr const char* kNames[] = {
        "engine.b_round_ops",  "engine.panel_hits",
        "engine.panel_misses", "serve.cache.hits",
        "serve.cache.misses",  "serve.cache.evictions",
        "tuner.tunes",         "tuner.candidates_evaluated",
        "metcf.builds",
    };
    enum Index
    {
        BRoundOps,
        PanelHits,
        PanelMisses,
        CacheHits,
        CacheMisses,
        CacheEvictions,
        Tunes,
        CandidatesEvaluated,
        MetcfBuilds,
        kCount,
    };

    std::array<uint64_t, kCount> v{};

    /** Current values of every counter. */
    static Counters now();

    /** Adds (@p after - @p before) into this. */
    void accumulate(const Counters& before, const Counters& after);

    uint64_t operator[](Index i) const { return v[i]; }
};

/** One SpMM execution inside a timed call. */
struct SpmmExec
{
    std::string kernel;  ///< RunReport::kernel (or the GCN kernel).
    Precision precision = Precision::Fp32;
    int64_t rows = 0;    ///< M
    int64_t cols = 0;    ///< K
    int64_t nnz = 0;
    int64_t n = 0;       ///< Dense width of the execution.
    int attempts = 1;    ///< RunReport::attempts
    int refusals = 0;    ///< Prepare refusals among the failures.
    int failures = 0;    ///< Other failed attempts (recovered).

    /** 2 * nnz * n floating-point operations. */
    double flops() const;

    /**
     * Bytes a kernel must move at least once, as computed from the
     * operand sizes: CSR arrays of A, all of B read, all of C written.
     */
    double bytes() const;
};

/** One timed library call and what it did. */
struct CallRecord
{
    CallKind kind = CallKind::Single;
    double ms = 0.0;       ///< Wall time inside the library call.
    int64_t requests = 1;  ///< Requests completed (a burst has 8).
    Precision precision = Precision::Fp32; ///< Requested precision.
    bool failed = false;   ///< Threw, or an output check failed.
    std::vector<SpmmExec> execs;
    Counters counters;     ///< Counter deltas inside the call.
};

/** Command-line knobs bench.cc hands a workload. */
struct WorkloadOptions
{
    uint64_t seed = 1;
    /** Flip one bit of this response before its check (-1 = none). */
    int64_t flipResponse = -1;
};

/** Output-check bookkeeping shared by every workload. */
struct CheckState
{
    uint64_t digest = 0xcbf29ce484222325ull; ///< FNV-1a of all outputs.
    int64_t responses = 0; ///< Responses checked so far.
    int64_t mismatches = 0;
    int64_t setupAttempted = 0; ///< Requests made during set-up.
    int64_t setupFailed = 0;    ///< ... whose output check failed.

    /** Folds @p n bytes at @p data into the digest. */
    void fold(const void* data, size_t n);
};

/** A benchmark workload (see file comment). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload name as given on the command line. */
    virtual const char* name() const = 0;

    /** Tail percentile reported as latency_tail_ms, in (0, 1). */
    virtual double tailQuantile() const = 0;

    /** Timed calls needed so the tail has >= 10 samples beyond it. */
    virtual int64_t minCalls() const = 0;

    /**
     * Builds, from scratch, the library state the timed calls need
     * (service and warm cache, or tuned kernel and model).  Returns
     * the seconds from construction until the first timed call could
     * start, excluding input generation.  May run more than once.
     */
    virtual double setup() = 0;

    /** One timed call plus its output check. */
    virtual CallRecord step() = 0;

    /**
     * Checks that can only be made once the calls are over (GCN
     * convergence); false fails the run.
     */
    virtual bool finish() { return true; }

    const CheckState& checks() const { return check; }

  protected:
    CheckState check;
};

/**
 * Creates workload @p name with every input generated from
 * @p opt.seed; nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadOptions& opt);

/** Names makeWorkload() accepts. */
std::vector<std::string> workloadNames();

} // namespace perfbench
} // namespace dtc

#endif // DTC_PERFBENCH_HARNESS_H
