#include "testing/generators.h"

#include <algorithm>

#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "matrix/coo.h"

namespace dtc {
namespace testing {

namespace {

/** Base row count per scale band (individual families perturb it). */
int64_t
baseDim(int scale, Rng& rng)
{
    switch (scale) {
      case 0:
        return rng.nextInt(17, 64);
      case 1:
        return rng.nextInt(200, 420);
      default:
        return rng.nextInt(1200, 2600);
    }
}

CsrMatrix
genEmptyRows(Rng& rng, int scale)
{
    // Leading, trailing and interior empty rows; every populated row
    // is isolated so several whole 16-row windows are empty.
    const int64_t n = baseDim(scale, rng);
    CooMatrix coo(n, n);
    const int64_t stride = rng.nextInt(17, 40); // > one window height
    for (int64_t r = stride; r < n; r += stride) {
        const int64_t deg = rng.nextInt(1, 4);
        for (int64_t d = 0; d < deg; ++d)
            coo.add(static_cast<int32_t>(r),
                    static_cast<int32_t>(rng.nextBounded(
                        static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genSingletonRows(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    CooMatrix coo(n, n);
    for (int64_t r = 0; r < n; ++r)
        coo.add(static_cast<int32_t>(r),
                static_cast<int32_t>(
                    rng.nextBounded(static_cast<uint64_t>(n))),
                rng.nextFloat(-1.0f, 1.0f));
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genPowerLawHub(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    CooMatrix coo(n, n);
    // One near-dense hub row (the worst row window), then Zipf tails.
    const int64_t hub_deg = std::max<int64_t>(8, n * 3 / 4);
    for (int64_t d = 0; d < hub_deg; ++d)
        coo.add(0,
                static_cast<int32_t>(
                    rng.nextBounded(static_cast<uint64_t>(n))),
                rng.nextFloat(-1.0f, 1.0f));
    for (int64_t r = 1; r < n; ++r) {
        const int64_t deg = static_cast<int64_t>(
            rng.nextZipf(static_cast<uint64_t>(
                             std::min<int64_t>(n, 24)),
                         1.4));
        for (int64_t d = 0; d <= deg; ++d) {
            // Preferential attachment towards low column indices.
            const int64_t c = static_cast<int64_t>(
                rng.nextZipf(static_cast<uint64_t>(n), 1.1));
            coo.add(static_cast<int32_t>(r), static_cast<int32_t>(c),
                    rng.nextFloat(-1.0f, 1.0f));
        }
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genBandedOdd(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    // Band half-width deliberately not a multiple of the block width.
    const int64_t band = rng.nextInt(3, 13) | 1;
    CooMatrix coo(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t lo = std::max<int64_t>(0, r - band);
        const int64_t hi = std::min<int64_t>(n - 1, r + band);
        for (int64_t c = lo; c <= hi; ++c) {
            if (rng.nextBernoulli(0.6))
                coo.add(static_cast<int32_t>(r),
                        static_cast<int32_t>(c),
                        rng.nextFloat(-1.0f, 1.0f));
        }
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genBlockDense(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    CooMatrix coo(n, n);
    // Dense blocks whose origins straddle the 16x8 TC grid (offsets
    // chosen off-alignment) — some blocks 100% full, some partial.
    const int64_t blocks = std::max<int64_t>(2, n / 40);
    for (int64_t bIdx = 0; bIdx < blocks; ++bIdx) {
        const int64_t h = rng.nextInt(8, 24);
        const int64_t w = rng.nextInt(5, 17);
        const int64_t r0 = rng.nextInt(0, std::max<int64_t>(0, n - h));
        const int64_t c0 = rng.nextInt(0, std::max<int64_t>(0, n - w));
        const bool full = rng.nextBernoulli(0.5);
        for (int64_t r = r0; r < std::min(n, r0 + h); ++r)
            for (int64_t c = c0; c < std::min(n, c0 + w); ++c)
                if (full || rng.nextBernoulli(0.7))
                    coo.add(static_cast<int32_t>(r),
                            static_cast<int32_t>(c),
                            rng.nextFloat(-1.0f, 1.0f));
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genDuplicateColumns(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    // All rows draw from a pool smaller than one block width, so SGT
    // condenses nearly everything onto the same block columns.
    const int64_t pool = rng.nextInt(2, 7);
    std::vector<int32_t> cols;
    for (int64_t i = 0; i < pool; ++i)
        cols.push_back(static_cast<int32_t>(
            rng.nextBounded(static_cast<uint64_t>(n))));
    CooMatrix coo(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = rng.nextInt(1, pool);
        for (int64_t d = 0; d < deg; ++d)
            coo.add(static_cast<int32_t>(r),
                    cols[rng.nextBounded(cols.size())],
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genSingleRowWide(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng) * 4;
    CooMatrix coo(1, n);
    const int64_t deg = rng.nextInt(1, std::min<int64_t>(n, 64));
    for (int64_t d = 0; d < deg; ++d)
        coo.add(0,
                static_cast<int32_t>(
                    rng.nextBounded(static_cast<uint64_t>(n))),
                rng.nextFloat(-1.0f, 1.0f));
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genSingleColTall(Rng& rng, int scale)
{
    const int64_t m = baseDim(scale, rng) * 4;
    CooMatrix coo(m, 1);
    for (int64_t r = 0; r < m; ++r)
        if (rng.nextBernoulli(0.4))
            coo.add(static_cast<int32_t>(r), 0,
                    rng.nextFloat(-1.0f, 1.0f));
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genAllZero(Rng& rng, int scale)
{
    // Cycle through the degenerate shape zoo: square, 0x0, 0xN, Mx0.
    switch (rng.nextBounded(4)) {
      case 0:
        return CsrMatrix(baseDim(scale, rng), baseDim(scale, rng));
      case 1:
        return CsrMatrix(0, 0);
      case 2:
        return CsrMatrix(0, baseDim(scale, rng));
      default:
        return CsrMatrix(baseDim(scale, rng), 0);
    }
}

CsrMatrix
genWideColumnSpan(Rng& rng, int scale)
{
    // Columns past INT16_MAX: int16 local arithmetic would overflow.
    // Rows stay few so the matrix is cheap despite the wide span.
    const int64_t span = 32768 + rng.nextInt(1, 4096);
    const int64_t rows = baseDim(std::min(scale, 1), rng);
    const int64_t n = std::max(rows, span);
    CooMatrix coo(n, n);
    const int64_t entries = rng.nextInt(8, 40);
    for (int64_t i = 0; i < entries; ++i) {
        const int64_t r = rng.nextBounded(
            static_cast<uint64_t>(rows));
        // Half the entries land beyond the int16 boundary.
        const int64_t c =
            rng.nextBernoulli(0.5)
                ? 32760 + rng.nextInt(0, span - 32761)
                : rng.nextInt(0, 1024);
        coo.add(static_cast<int32_t>(r), static_cast<int32_t>(c),
                rng.nextFloat(-1.0f, 1.0f));
    }
    // Pin the extremes so every seed truly crosses the boundary.
    coo.add(0, 0, 1.0f);
    coo.add(0, static_cast<int32_t>(n - 1), 1.0f);
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genZeroValues(Rng& rng, int scale)
{
    const int64_t n = baseDim(scale, rng);
    CooMatrix coo(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = rng.nextInt(1, 6);
        for (int64_t d = 0; d < deg; ++d) {
            // Half the stored entries are exact structural zeros.
            const float v = rng.nextBernoulli(0.5)
                                ? 0.0f
                                : rng.nextFloat(-1.0f, 1.0f);
            coo.add(static_cast<int32_t>(r),
                    static_cast<int32_t>(rng.nextBounded(
                        static_cast<uint64_t>(n))),
                    v);
        }
    }
    return CsrMatrix::fromCoo(coo);
}

CsrMatrix
genNearDense(Rng& rng, int scale)
{
    // Keep the quadratic fill affordable at every scale.
    const int64_t n = std::min<int64_t>(baseDim(scale, rng), 160);
    CooMatrix coo(n, n);
    for (int64_t r = 0; r < n; ++r)
        for (int64_t c = 0; c < n; ++c)
            if (rng.nextBernoulli(0.92))
                coo.add(static_cast<int32_t>(r),
                        static_cast<int32_t>(c),
                        rng.nextFloat(-1.0f, 1.0f));
    return CsrMatrix::fromCoo(coo);
}

} // namespace

const std::vector<StructureFamily>&
allStructureFamilies()
{
    static const std::vector<StructureFamily> kAll = {
        StructureFamily::EmptyRows,
        StructureFamily::SingletonRows,
        StructureFamily::PowerLaw,
        StructureFamily::Banded,
        StructureFamily::BlockDense,
        StructureFamily::DuplicateColumns,
        StructureFamily::SingleRowWide,
        StructureFamily::SingleColTall,
        StructureFamily::AllZero,
        StructureFamily::WideColumnSpan,
        StructureFamily::ZeroValues,
        StructureFamily::NearDense,
    };
    return kAll;
}

const char*
structureFamilyName(StructureFamily f)
{
    switch (f) {
      case StructureFamily::EmptyRows:
        return "empty-rows";
      case StructureFamily::SingletonRows:
        return "singleton-rows";
      case StructureFamily::PowerLaw:
        return "power-law";
      case StructureFamily::Banded:
        return "banded";
      case StructureFamily::BlockDense:
        return "block-dense";
      case StructureFamily::DuplicateColumns:
        return "duplicate-columns";
      case StructureFamily::SingleRowWide:
        return "single-row-wide";
      case StructureFamily::SingleColTall:
        return "single-col-tall";
      case StructureFamily::AllZero:
        return "all-zero";
      case StructureFamily::WideColumnSpan:
        return "wide-column-span";
      case StructureFamily::ZeroValues:
        return "zero-values";
      case StructureFamily::NearDense:
        return "near-dense";
    }
    return "?";
}

StructureFamily
structureFamilyFromName(const std::string& name)
{
    for (StructureFamily f : allStructureFamilies())
        if (name == structureFamilyName(f))
            return f;
    DTC_RAISE(ErrorCode::InvalidInput,
              "unknown structure family: " << name);
}

CsrMatrix
generateStructure(StructureFamily family, uint64_t seed, int scale)
{
    DTC_CHECK_CODE(scale >= 0 && scale <= 2, ErrorCode::InvalidInput,
                   "scale must be 0, 1 or 2; got " << scale);
    // Decorrelate (family, seed) pairs so family F at seed S never
    // shares a stream with family F' at S.
    Rng rng(seed * 0x9e3779b97f4a7c15ull +
            static_cast<uint64_t>(family) * 0xbf58476d1ce4e5b9ull + 1);
    switch (family) {
      case StructureFamily::EmptyRows:
        return genEmptyRows(rng, scale);
      case StructureFamily::SingletonRows:
        return genSingletonRows(rng, scale);
      case StructureFamily::PowerLaw:
        return genPowerLawHub(rng, scale);
      case StructureFamily::Banded:
        return genBandedOdd(rng, scale);
      case StructureFamily::BlockDense:
        return genBlockDense(rng, scale);
      case StructureFamily::DuplicateColumns:
        return genDuplicateColumns(rng, scale);
      case StructureFamily::SingleRowWide:
        return genSingleRowWide(rng, scale);
      case StructureFamily::SingleColTall:
        return genSingleColTall(rng, scale);
      case StructureFamily::AllZero:
        return genAllZero(rng, scale);
      case StructureFamily::WideColumnSpan:
        return genWideColumnSpan(rng, scale);
      case StructureFamily::ZeroValues:
        return genZeroValues(rng, scale);
      case StructureFamily::NearDense:
        return genNearDense(rng, scale);
    }
    DTC_ASSERT(false);
    return CsrMatrix();
}

} // namespace testing
} // namespace dtc
