/**
 * @file
 * Host execution engine — the CPU analog of the paper's runtime
 * optimisations, shared by every SpMM kernel's compute() path.
 *
 * The paper's kernels win through three fetch/index restructurings:
 *   - VFD (Vectorized Fetch Dense): wide, regular B loads;
 *   - IP  (Index Precomputing): nonzero coordinates resolved at
 *     format-conversion time instead of per-MAC;
 *   - SMB (Shared-Memory Bypassing): operands flow to the compute
 *     units without a staging round trip.
 *
 * On the host the same factors dominate, so the engine provides their
 * CPU analogs:
 *   - PreparedDense (prepared_dense.h): B is rounded to the target
 *     tensor-core precision once per (contents, precision) pair —
 *     O(K*N) rounding ops — instead of once per touching nonzero
 *     inside each kernel's hot loop (O(nnz*N));
 *   - column-panel tiling (panelCols): the N dimension is processed
 *     in L1/L2-sized panels so each row window's C slab and the B
 *     panel behind it stay cache-resident (the VFD/SMB analog);
 *   - axpy micro-kernels (simd/simd.h): per-ISA vector loops with the
 *     per-j accumulation order of a plain scalar loop, so results
 *     are *bitwise identical* to it on every backend;
 *   - flat (row, col, val) lanes for DTC (built in prepare(), see
 *     DtcKernel): the IP analog.
 *
 * Every engine-routed kernel has this as its only execution path.
 * The conformance oracle judges it against the naive loops in
 * kernels/reference.cc, which share no code with the engine.
 */
#ifndef DTC_ENGINE_ENGINE_H
#define DTC_ENGINE_ENGINE_H

#include <cstdint>

#include "obs/metrics.h"

namespace dtc {
namespace engine {

/**
 * Column-panel width for dense width @p n: the N dimension is
 * processed panelColsBase() floats at a time so a row window's C slab
 * plus the B rows behind it stay cache-resident.  Widths up to
 * 2*panelColsBase() run as a single panel: one pass over the index
 * arrays is cheaper than two panels of re-scan.
 *
 * Callers on the engine hot paths resolve this once per compute()
 * call on the calling thread (before parallelFor), so a
 * ScopedPanelCols override propagates into worker threads via the
 * captured value.
 */
int64_t panelCols(int64_t n);

/**
 * The base panel width, resolved strongest-first from: an active
 * ScopedPanelCols on the calling thread; a one-shot sysconf L2/L3
 * cache probe rounded down to a multiple of kJBlock and clamped to
 * [64, 4096] (cached after the first call, and published as the
 * "engine.panel_cols" gauge); kPanelCols when the probe is
 * unavailable.  The rounding keeps every interior panel boundary on
 * a vector boundary, so only the last panel of a row can end in a
 * scalar tail.
 */
int64_t panelColsBase();

/** RAII thread-local panel-width override (tests pin multi-panel
 * coverage with it regardless of the host's cache size). */
class ScopedPanelCols
{
  public:
    explicit ScopedPanelCols(int64_t cols);
    ~ScopedPanelCols();

    ScopedPanelCols(const ScopedPanelCols&) = delete;
    ScopedPanelCols& operator=(const ScopedPanelCols&) = delete;

  private:
    int64_t prev;
};

/** Fallback panel width in floats (pre-probe default). */
constexpr int64_t kPanelCols = 256;

/** Width of the 8-float vector step every SIMD backend has. */
constexpr int64_t kJBlock = 8;

/**
 * Process-wide engine counters, backed by the observability metrics
 * registry (obs/metrics.h) under the names "engine.b_round_ops",
 * "engine.panel_hits" and "engine.panel_misses" — so they appear in
 * metrics::toJson() snapshots and bench_compare gates on them.
 * obs::Counter mimics std::atomic<uint64_t> (load / store /
 * fetch_add), so call sites are unchanged; resetStats() zeroes them.
 *
 * roundingOps is the measurable form of the O(nnz*N) -> O(K*N)
 * B-rounding reduction: PreparedDense bumps it by rows*cols once per
 * cache miss, where rounding inside the kernel loop (as the naive
 * reference does) costs nnz*N roundings per compute() call.
 */
struct Stats
{
    obs::Counter& roundingOps;  ///< B elements rounded.
    obs::Counter& panelHits;    ///< PreparedDense cache hits.
    obs::Counter& panelMisses;  ///< PreparedDense cache misses.
};

Stats& stats();
void resetStats();

} // namespace engine
} // namespace dtc

#endif // DTC_ENGINE_ENGINE_H
