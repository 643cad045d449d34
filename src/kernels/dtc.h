/**
 * @file
 * DTC-SpMM — the paper's runtime kernel (Section 4.4/4.5).
 *
 * One implementation drives the whole Fig. 14 ablation through
 * feature flags, all defaulting to the full DTC-SpMM configuration:
 *
 *   - smb (Shared-Memory Bypassing): B tiles go straight from global
 *     memory to the register file via PTX mma + LDG, skipping the
 *     STS/LDS round trip the WMMA path requires;
 *   - ip  (Index-Precomputing): per-nonzero register slots come
 *     directly from ME-TCF's tcLocalId, eliminating runtime
 *     coordinate IMADs;
 *   - sdb (Sparse Double Buffering): the next sparse A tile is
 *     prefetched into a second shared-memory buffer with cp.async,
 *     overlapping FetchSparse with TC compute;
 *   - vfd (Vectorized Fetch Dense): LDG.128 strided-access B loads
 *     with register remapping deferred to the C writeback.
 *
 * Load distribution is either Base (one thread block per row window),
 * Balanced (strict-balance: 32 TC blocks per thread block regardless
 * of window, with atomic combination), or Auto (the simulation-based
 * Selector decides per input and architecture).
 */
#ifndef DTC_KERNELS_DTC_H
#define DTC_KERNELS_DTC_H

#include "common/aligned.h"
#include "common/precision.h"
#include "formats/me_tcf.h"
#include "kernels/kernel.h"
#include "selector/selector.h"

namespace dtc {

/** Feature flags and load-distribution mode of the DTC kernel. */
struct DtcOptions
{
    bool smb = true; ///< Shared-memory bypassing.
    bool ip = true;  ///< Index precomputing.
    bool sdb = true; ///< Sparse double buffering.
    bool vfd = true; ///< Vectorized dense fetch.

    /**
     * Thread arrangement of the VFetchDense stage (paper Fig. 8b):
     * strided-access (default) lets threads load the column-major
     * B-fragment layout directly; sequential-access coalesces
     * neighbouring threads on one row but then needs a warp
     * transpose (__shfl_sync) per fragment, whose measured 10.7-cycle
     * latency the paper rejects as significant online overhead.
     */
    bool sequentialAccess = false;

    /**
     * Tensor-core operand precision (the paper targets TF32; BF16
     * and FP16 are the "other precisions" extension its conclusion
     * names — FP16/BF16 MMA runs at twice the TF32 rate).
     * Precision::Fp32 is rejected: this is a tensor-core kernel.
     */
    Precision precision = Precision::Tf32;

    enum class Mode { Base, Balanced, Auto };
    Mode mode = Mode::Auto;

    /** "Base" configuration of Fig. 14 (ME-TCF only, no opts). */
    static DtcOptions
    baseline()
    {
        DtcOptions o;
        o.smb = o.ip = o.sdb = o.vfd = false;
        o.mode = Mode::Base;
        return o;
    }
};

/** The DTC-SpMM kernel. */
class DtcKernel : public SpmmKernel
{
  public:
    /** TC blocks per thread block under strict balance. */
    static constexpr int64_t kBlocksPerBalancedTb = 32;

    explicit DtcKernel(DtcOptions options = {});

    std::string name() const override { return cachedName; }
    Refusal prepare(const CsrMatrix& a) override;
    bool prepared() const override { return ready; }
    void compute(const DenseMatrix& b, DenseMatrix& c) const override;
    LaunchResult cost(int64_t n, const CostModel& cm) const override;

    /** The ME-TCF representation (for analysis benches). */
    const MeTcfMatrix& meTcf() const { return format; }

    const DtcOptions& options() const { return opts; }

    /** Selector decision this kernel would make on @p arch. */
    SelectorDecision decide(const ArchSpec& arch) const;

  private:
    /**
     * The engine's Index-Precomputing analog, built once in
     * prepare(): every (localId, sparseAtoB) pair expanded into flat
     * (C row, B row, pre-rounded value) lanes in ME-TCF nonzero
     * order.
     */
    struct FlatLanes
    {
        AlignedVector<int32_t> row;  ///< C row per nonzero.
        AlignedVector<int32_t> col;  ///< B row per nonzero.
        AlignedVector<float> val;    ///< Value in operand precision.
    };

    LaunchResult costBase(int64_t n, const CostModel& cm) const;
    LaunchResult costBalanced(int64_t n, const CostModel& cm) const;

    /** Builds FlatLanes from the freshly converted ME-TCF format. */
    void buildLanes();

    /** Per-block event tally shared by both load distributions. */
    void blockWork(int64_t block, int64_t n, TbWork& tb,
                   size_t tb_index, class BTrafficMeter& meter) const;

    /** Applies the options' pipeline-overlap profile to @p tb. */
    void applyPipelineProfile(TbWork& tb) const;

    DtcOptions opts;
    std::string cachedName;
    MeTcfMatrix format;
    FlatLanes lanes;
    bool ready = false;
};

} // namespace dtc

#endif // DTC_KERNELS_DTC_H
