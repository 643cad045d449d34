/**
 * @file
 * Runtime-dispatched SIMD micro-kernel backend of the host engine.
 *
 * A small table of micro-kernels (axpy, residue-lane axpy with
 * software prefetch, double-accumulation axpy, and the PreparedDense
 * precision-rounding pass), each implemented per ISA:
 *
 *   - scalar  — portable baseline every backend is compared with;
 *   - avx2    — 8-wide __m256 (compiled with -mavx2);
 *   - avx512  — 16-wide __m512 with an 8-wide remainder step
 *               (compiled with -mavx512{f,dq,bw,vl}).
 *
 * Bitwise identity is a hard contract: every backend performs, per
 * output element, the exact FP32 operation sequence of the scalar
 * backend — separate multiply then add (the per-ISA translation units
 * are compiled with -ffp-contract=off so no FMA contraction can merge
 * them) and ascending-j, ascending-lane accumulation order.
 * Vectorizing across the j (column) dimension is order-preserving
 * because each c[j] += v * b[j] is independent per j.
 *
 * Dispatch resolution, strongest first: an active ScopedSimdMode on
 * the calling thread, the typed DTC_SIMD environment knob
 * (scalar|avx2|avx512 — anything else, or an ISA the CPU lacks,
 * raises DtcError(InvalidInput)), then cpuid auto-detection.
 *
 * Observability: the selected ISA is published as the
 * "engine.simd.isa" gauge.
 */
#ifndef DTC_ENGINE_SIMD_SIMD_H
#define DTC_ENGINE_SIMD_SIMD_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/precision.h"

namespace dtc {
namespace engine {
namespace simd {

/**
 * Backend selector.  Order matters: later entries are wider ISAs.
 * The values are what the "engine.simd.isa" gauge publishes.
 */
enum class Isa
{
    Scalar = 1, ///< Portable baseline.
    Avx2 = 2,   ///< 8-wide __m256.
    Avx512 = 3, ///< 16-wide __m512 (+ 8-wide remainder step).
};

/** Display name: "scalar", "avx2", "avx512". */
const char* isaName(Isa isa);

/** Inverse of isaName(); nullopt for any other string. */
std::optional<Isa> isaFromName(const std::string& name);

/** Widest ISA this CPU supports (cached after the first call). */
Isa detectedIsa();

/** Every ISA this build + CPU can execute, Scalar first. */
std::vector<Isa> supportedIsas();

/** True when this build + CPU can execute @p isa. */
bool isaSupported(Isa isa);

/**
 * The backend the calling thread should use right now.  Resolution,
 * strongest first: ScopedSimdMode on this thread, the DTC_SIMD
 * environment variable (re-read per call so tests can toggle it;
 * typed — unknown or unsupported values raise
 * DtcError(InvalidInput)), then detectedIsa().
 */
Isa activeIsa();

/** RAII thread-local ISA override (mirrors ScopedNumThreads). */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(Isa isa);
    ~ScopedSimdMode();

    ScopedSimdMode(const ScopedSimdMode&) = delete;
    ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

  private:
    int prev;
};

/**
 * The micro-kernel table of one backend.  Callers resolve the table
 * once per compute() call — on the calling thread, *before* entering
 * parallelFor, so a ScopedSimdMode override propagates into worker
 * threads via the captured reference.
 */
struct Kernels
{
    Isa isa;

    /** c[0..n) += v * b[0..n); ascending j, separate mul + add. */
    void (*axpy)(float* c, const float* b, float v, int64_t n);

    /**
     * axpy plus a software prefetch of @p next_b (the next sparse
     * lane's B row; nullptr = nothing to prefetch).  The residue-lane
     * analog of the paper's non-condensed fetch path: the next lane's
     * B row is pulled toward L1 while the current lane multiplies.
     */
    void (*axpyPrefetch)(float* c, const float* b, float v, int64_t n,
                         const float* next_b);

    /** acc[0..n) += v * (double)b[0..n) (spmmCsrDoubleAcc). */
    void (*axpyDouble)(double* acc, const float* b, double v,
                       int64_t n);

    /**
     * out[0..n) = roundToPrecision(in[0..n), p) — the PreparedDense
     * round-to-storage pass.
     */
    void (*roundPanel)(float* out, const float* in, int64_t n,
                       Precision p);
};

/** Table for activeIsa(); also publishes the "engine.simd.isa" gauge. */
const Kernels& kernels();

/**
 * Table for a specific ISA.  Raises DtcError(InvalidInput) when the
 * backend is not compiled into this build or the CPU lacks it.
 */
const Kernels& kernelsFor(Isa isa);

} // namespace simd
} // namespace engine
} // namespace dtc

#endif // DTC_ENGINE_SIMD_SIMD_H
