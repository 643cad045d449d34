/**
 * @file
 * Engine drivers for CSR-shaped SpMM — the panel-tiled, pre-rounded
 * hot loops behind the cuSPARSE-like, TCGNN and Sputnik-like kernels
 * (anything that walks row -> nonzeros -> N-wide B row) and the
 * runtime's terminal double-accumulation fallback.
 *
 * Loop structure (per parallelFor chunk of rows):
 *
 *   for each column panel [j0, j0+pn):          // engine::panelCols
 *     for each row r in the chunk:
 *       for each nonzero k of r:                // CSR order
 *         axpy(C[r]+j0, Bprep[col(k)]+j0, v(k), pn)
 *
 * Panel tiling only reorders work across *distinct* output columns;
 * for any single C element the nonzeros are applied in exactly the
 * CSR order the naive reference (kernels/reference.h) uses, so
 * outputs are bitwise identical to it.
 * B comes from PreparedDense (rounded once); A values are rounded
 * inline per panel — O(nnz * N/panel), negligible next to the
 * O(nnz*N) B-rounding this replaces.
 */
#ifndef DTC_ENGINE_SPMM_CSR_H
#define DTC_ENGINE_SPMM_CSR_H

#include <cstdint>

#include "common/precision.h"
#include "matrix/dense.h"

namespace dtc {
namespace engine {

/**
 * C = A * B with operands rounded to @p p (Fp32 = no rounding) and
 * FP32 accumulation.  @p c must be pre-sized; it is zeroed here.
 * Rows are processed in parallel chunks of @p grain.
 */
void spmmCsrRounded(int64_t rows, const int64_t* row_ptr,
                    const int32_t* col_idx, const float* vals,
                    Precision p, const DenseMatrix& b, DenseMatrix& c,
                    int64_t grain);

/**
 * C = A * B with double accumulation rounded to float at the end
 * (the referenceSpmm numerics).  Every element of @p c is written.
 * Polls the calling thread's deadline once per (row chunk, panel).
 */
void spmmCsrDoubleAcc(int64_t rows, const int64_t* row_ptr,
                      const int32_t* col_idx, const float* vals,
                      const DenseMatrix& b, DenseMatrix& c,
                      int64_t grain);

} // namespace engine
} // namespace dtc

#endif // DTC_ENGINE_SPMM_CSR_H
