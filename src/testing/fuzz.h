/**
 * @file
 * Fuzzing campaigns: the loops that drive generators -> oracle ->
 * shrinker -> corpus.
 *
 * Three campaign shapes:
 *   - smoke: one bounded, deterministic pass over every structure
 *     family x fixed seeds x the full oracle combo space, plus the
 *     metamorphic properties and a fault-injection sweep.  Fast
 *     enough for ctest; byte-identical output run to run.
 *   - timed: fresh seeds until a wall-clock budget expires (the CI
 *     nightly), shrinking and dumping every failure it finds.
 *   - replay: re-judges each checked-in corpus artifact so fixed bugs
 *     stay fixed.
 *
 * The fault sweep asserts the repo-wide error contract: an injected
 * fault may surface as a typed DtcError or a structured Refusal, or
 * the operation completes with a verified-correct result — silent
 * corruption is the only unacceptable outcome.
 */
#ifndef DTC_TESTING_FUZZ_H
#define DTC_TESTING_FUZZ_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "testing/generators.h"
#include "testing/oracle.h"
#include "testing/shrink.h"

namespace dtc {
namespace testing {

/** Campaign knobs shared by smoke and timed modes. */
struct FuzzOptions
{
    /** Generator scale for the matrices (see generateStructure). */
    int scale = 0;

    /** Structure seeds per family (smoke mode runs exactly these). */
    std::vector<uint64_t> seeds = {1, 2};

    int64_t denseWidth = 16;

    /** Axes swept per case; kernels empty = all. */
    OracleConfig oracle;

    /**
     * Directory for shrunk failure artifacts; empty disables
     * dumping.  Must already exist.
     */
    std::string corpusDir;

    /** Progress/diagnostic stream; nullptr silences the campaign. */
    std::ostream* log = nullptr;

    /** Shrink budget per failure (predicate evaluations). */
    int64_t shrinkEvaluations = 600;
};

/** Aggregate campaign outcome. */
struct FuzzStats
{
    int64_t cases = 0;    ///< Matrices judged.
    int64_t combos = 0;   ///< Oracle combos executed.
    int64_t passes = 0;
    int64_t refusals = 0;
    int64_t properties = 0; ///< Metamorphic checks executed.
    int64_t faultRuns = 0;  ///< Fault-injection runs executed.
    int64_t failures = 0;   ///< Oracle + property + fault failures.

    /** One line per failure (shrunk where applicable). */
    std::vector<std::string> failureLines;

    bool ok() const { return failures == 0; }

    std::string summary() const;

    void
    absorb(const FuzzStats& other)
    {
        cases += other.cases;
        combos += other.combos;
        passes += other.passes;
        refusals += other.refusals;
        properties += other.properties;
        faultRuns += other.faultRuns;
        failures += other.failures;
        failureLines.insert(failureLines.end(),
                            other.failureLines.begin(),
                            other.failureLines.end());
    }
};

/**
 * Judges one generated matrix across the full oracle config; on
 * failure shrinks the first failing combo and (when corpusDir is set)
 * dumps a replayable artifact.
 */
FuzzStats fuzzOneCase(StructureFamily family, uint64_t seed,
                      const FuzzOptions& opt);

/**
 * The bounded deterministic campaign: every family x opt.seeds at
 * opt.scale, plus metamorphic properties on a representative kernel
 * slice and the fault-injection sweep.
 */
FuzzStats runSmokeCampaign(const FuzzOptions& opt);

/**
 * Runs fresh (family, seed) cases until @p minutes of wall clock
 * elapse, starting from @p base_seed.  Output depends on timing; for
 * determinism use runSmokeCampaign.
 */
FuzzStats runTimedCampaign(const FuzzOptions& opt, double minutes,
                           uint64_t base_seed = 1000);

/**
 * Resilience soak: @p rounds independent seeded scenarios driving
 * the resilient runtime (runtime/runtime.h) with one armed fault,
 * a randomized-but-deterministic deadline (counted in cancellation
 * polls, so every round terminates without wall-clock dependence),
 * and the result guard randomly on or off.  Asserts the
 * typed-error-or-correct contract: each round either completes with
 * an oracle-verified result or throws a typed DtcError — silent
 * corruption or an untyped escape is a failure.  Deterministic for a
 * given (@p rounds, @p base_seed, opt.scale, opt.denseWidth).
 */
FuzzStats runSoakCampaign(const FuzzOptions& opt, int64_t rounds,
                          uint64_t base_seed = 5000);

/**
 * Serving-layer soak: @p rounds seeded scenarios driving the
 * multi-tenant SpmmService (serve/service.h) with randomized
 * concurrent clients — a small pool of matrices shared across
 * tenants (so the prepared cache sees hits, misses, and evictions),
 * randomized precisions, queue capacities, batch limits, deadlines,
 * and an occasionally armed fault.  Asserts the service-level
 * typed-error-or-correct contract: every submitted request either
 * yields an oracle-verified result (through the future) or a typed
 * DtcError (thrown at submit for admission rejections, through the
 * future otherwise).  Wall-clock deadlines make *which* outcome racy;
 * the contract holds for both.  Run under TSan in CI — the queue and
 * cache must be clean.
 */
FuzzStats runServeSoakCampaign(const FuzzOptions& opt, int64_t rounds,
                               uint64_t base_seed = 7000);

/**
 * Metamorphic property sweep (reorder invariance, linearity, scalar
 * scaling, serialize round trip) over every family at @p opt.seeds.
 */
FuzzStats runPropertySweep(const FuzzOptions& opt);

/**
 * Fault-injection sweep over the pipeline's DTC_FAULT_POINT sites:
 * each run must end in a typed DtcError, a structured Refusal, or a
 * verified-correct result.
 */
FuzzStats runFaultSweep(const FuzzOptions& opt);

/**
 * Re-judges every `.case` artifact in @p dir.  Checked-in artifacts
 * document *fixed* bugs (regression corpus), so an artifact whose
 * combo fails the oracle again counts as a campaign failure.
 */
FuzzStats replayCorpus(const std::string& dir, std::ostream* log);

/** Lists `.case` files directly inside @p dir, sorted. */
std::vector<std::string> listCaseFiles(const std::string& dir);

} // namespace testing
} // namespace dtc

#endif // DTC_TESTING_FUZZ_H
