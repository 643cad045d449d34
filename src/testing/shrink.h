/**
 * @file
 * Failure minimization and replayable corpus artifacts.
 *
 * When the oracle flags a (matrix, kernel, precision, mode) tuple, the
 * raw matrix is rarely the story — shrinkMatrix runs delta debugging
 * (Zeller's ddmin over nonzeros, then row/column-range restriction,
 * dimension trimming and value canonicalization) against a caller
 * predicate until no smaller matrix still fails.  The result is dumped
 * as a Matrix Market file plus a `.case` sidecar (generator family,
 * seeds, kernel/precision/mode axes) under tests/corpus/, replayable
 * by `dtc_fuzz --replay` and by the fuzz_corpus_replay ctest.
 */
#ifndef DTC_TESTING_SHRINK_H
#define DTC_TESTING_SHRINK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/precision.h"
#include "engine/simd/simd.h"
#include "kernels/kernel.h"
#include "matrix/csr.h"

namespace dtc {
namespace testing {

/** True when the candidate matrix still triggers the failure. */
using FailurePredicate = std::function<bool(const CsrMatrix&)>;

/** Result of one shrink run. */
struct ShrinkResult
{
    CsrMatrix matrix;       ///< Smallest still-failing matrix found.
    int64_t evaluations = 0;///< Predicate calls spent.
    int64_t reductions = 0; ///< Accepted shrink steps.
};

/**
 * Minimizes @p failing while @p still_fails holds.  @p failing must
 * itself satisfy the predicate (throws DtcError(InvalidInput)
 * otherwise — a non-reproducing "failure" would shrink to garbage).
 * Deterministic; stops at a fixpoint or after @p max_evaluations
 * predicate calls.
 */
ShrinkResult shrinkMatrix(const CsrMatrix& failing,
                          const FailurePredicate& still_fails,
                          int64_t max_evaluations = 2000);

/** Everything needed to replay one failing combo. */
struct FailureArtifact
{
    std::string family;  ///< Structure family name ("" if external).
    uint64_t structSeed = 0;
    int scale = 1;
    KernelKind kind = KernelKind::CuSparse;
    Precision precision = Precision::Fp32;
    /** SIMD backend; a sidecar without an isa line means detected. */
    engine::simd::Isa isa = engine::simd::detectedIsa();
    int threads = 1;
    int64_t denseWidth = 16;
    uint64_t denseSeed = 1;
    std::string detail;  ///< Oracle failure description.
};

/**
 * Writes `<dir>/<stem>.mtx` (skipped for 0-dimension shapes, which
 * Matrix Market cannot express) and `<dir>/<stem>.case`.  @p dir must
 * exist.  Returns the `.case` path.
 */
std::string writeFailureArtifact(const std::string& dir,
                                 const std::string& stem,
                                 const CsrMatrix& m,
                                 const FailureArtifact& info);

/** A reloaded artifact: the matrix plus its replay axes. */
struct LoadedArtifact
{
    CsrMatrix matrix;
    FailureArtifact info;
};

/**
 * Loads `<case_path>` (a `.case` file) and its sibling `.mtx`.  When
 * the `.mtx` is absent the matrix is regenerated from
 * (family, structSeed, scale).  Throws DtcError on malformed input.
 */
LoadedArtifact loadFailureArtifact(const std::string& case_path);

/**
 * Re-runs the artifact's combo through the oracle.  Returns true when
 * the failure still reproduces (@p detail receives the description).
 * Raises DtcError(InvalidInput) when this host cannot run the
 * artifact's ISA.
 */
bool replayArtifact(const LoadedArtifact& artifact,
                    std::string* detail = nullptr);

} // namespace testing
} // namespace dtc

#endif // DTC_TESTING_SHRINK_H
