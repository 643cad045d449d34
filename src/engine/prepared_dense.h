/**
 * @file
 * PreparedDense — the engine's B-panel cache.
 *
 * Tensor-core kernels round every B operand to the MMA input
 * precision (TF32/BF16/FP16).  Rounding inside the innermost loop
 * costs O(nnz*N) roundings per compute() call, the single largest
 * source of per-element overhead on the host.  PreparedDense
 * rounds B exactly once per (contents, precision) pair — O(K*N) —
 * and shares the rounded copy across kernels, tuner candidates and
 * repeated launches through a small process-wide LRU keyed by
 * (data pointer, shape, precision, content hash).  The content hash
 * is a full deterministic pass over B, so a matrix mutated in place
 * (a GCN feature matrix between training steps) re-rounds instead of
 * serving stale panels.
 *
 * Fp32 needs no rounding: acquisition is a zero-copy view of the
 * caller's matrix (the SMB analog — no staging copy at all).
 *
 * Rounding is elementwise, so the rounded buffer is bitwise
 * independent of thread count, and reading rounded values multiplies
 * the exact floats that rounding each operand inline produces.
 */
#ifndef DTC_ENGINE_PREPARED_DENSE_H
#define DTC_ENGINE_PREPARED_DENSE_H

#include <cstdint>
#include <memory>

#include "common/aligned.h"
#include "common/precision.h"
#include "matrix/dense.h"

namespace dtc {
namespace engine {

/**
 * A read view of B in the target operand precision, valid while both
 * this object and the source matrix are alive.
 */
class PreparedDense
{
  public:
    /**
     * Acquires the rounded form of @p b under precision @p p: a
     * cache hit, a fresh rounding pass (cache miss), or a
     * pass-through view for Fp32.
     */
    PreparedDense(const DenseMatrix& b, Precision p);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }

    /** Row @p r of B, already in the operand precision. */
    const float*
    row(int64_t r) const
    {
        return base + r * nCols;
    }

    /** True when this view came from the process-wide cache. */
    bool fromCache() const { return cached; }

  private:
    std::shared_ptr<const AlignedVector<float>> owned;
    const float* base = nullptr;
    int64_t nRows = 0;
    int64_t nCols = 0;
    bool cached = false;
};

/** Drops every cached panel (tests / benchmarks). */
void clearPreparedDenseCache();

} // namespace engine
} // namespace dtc

#endif // DTC_ENGINE_PREPARED_DENSE_H
