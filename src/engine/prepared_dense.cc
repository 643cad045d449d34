#include "engine/prepared_dense.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/simd/simd.h"

namespace dtc {
namespace engine {

namespace {

/** Rows per parallelFor chunk for hashing and rounding passes. */
constexpr int64_t kRowGrain = 256;

/**
 * Cached (B, precision) pairs kept; beyond this, LRU eviction.  Four
 * cover a GCN epoch, the caller that re-uses a B: its feature matrix
 * comes back after three other operands.  Each further slot only pins
 * one more served request's rounded panel, as large as its B.
 */
constexpr size_t kCacheCapacity = 4;

/**
 * FNV-1a over the raw words of rows [lo, hi), combined across chunks
 * in ascending chunk order — deterministic for any thread count.
 */
uint64_t
contentHash(const DenseMatrix& b)
{
    const uint64_t seed = 0xcbf29ce484222325ull;
    if (b.size() == 0)
        return seed;
    return parallelReduce(
        0, b.rows(), kRowGrain, seed,
        [&](int64_t lo, int64_t hi) {
            uint64_t h = 0xcbf29ce484222325ull;
            const size_t words =
                static_cast<size_t>((hi - lo) * b.cols());
            const float* p = b.row(lo);
            for (size_t i = 0; i < words; ++i) {
                uint32_t w;
                std::memcpy(&w, p + i, sizeof(w));
                h = (h ^ w) * 0x100000001b3ull;
            }
            return h;
        },
        [](uint64_t acc, uint64_t part) {
            return (acc ^ part) * 0x100000001b3ull;
        });
}

struct CacheEntry
{
    const void* src;
    int64_t rows;
    int64_t cols;
    Precision prec;
    uint64_t hash;
    uint64_t tick;
    std::shared_ptr<const AlignedVector<float>> buf;
};

std::mutex cacheMu;
std::vector<CacheEntry>& cacheEntries()
{
    static std::vector<CacheEntry> c;
    return c;
}
uint64_t cacheTick = 0;

std::shared_ptr<const AlignedVector<float>>
roundDense(const DenseMatrix& b, Precision p)
{
    auto buf = std::make_shared<AlignedVector<float>>(b.size());
    float* out = buf->data();
    const float* in = b.data();
    // Table resolved on the calling thread (a thread-local
    // ScopedSimdMode would not reach parallelFor workers).
    const simd::Kernels& K = simd::kernels();
    parallelFor(0, b.rows(), kRowGrain,
                [&](int64_t lo, int64_t hi) {
        const int64_t e_lo = lo * b.cols();
        const int64_t e_hi = hi * b.cols();
        K.roundPanel(out + e_lo, in + e_lo, e_hi - e_lo, p);
    });
    stats().roundingOps.fetch_add(static_cast<uint64_t>(b.size()),
                                  std::memory_order_relaxed);
    return buf;
}

} // namespace

PreparedDense::PreparedDense(const DenseMatrix& b, Precision p)
    : nRows(b.rows()), nCols(b.cols())
{
    if (p == Precision::Fp32) {
        // No rounding, no copy: point straight at the caller's data.
        base = b.data();
        return;
    }

    DTC_TRACE_SCOPE("engine.prepare_dense");
    const uint64_t hash = contentHash(b);
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        for (CacheEntry& e : cacheEntries()) {
            if (e.src == static_cast<const void*>(b.data()) &&
                e.rows == nRows && e.cols == nCols && e.prec == p &&
                e.hash == hash) {
                e.tick = ++cacheTick;
                owned = e.buf;
                base = owned->data();
                cached = true;
                stats().panelHits.fetch_add(
                    1, std::memory_order_relaxed);
                return;
            }
        }
    }

    stats().panelMisses.fetch_add(1, std::memory_order_relaxed);
    owned = roundDense(b, p);
    base = owned->data();

    std::lock_guard<std::mutex> lock(cacheMu);
    auto& cache = cacheEntries();
    // A same-pointer entry whose hash no longer matches is stale
    // (matrix mutated in place): replace it instead of growing.
    for (CacheEntry& e : cache) {
        if (e.src == static_cast<const void*>(b.data()) &&
            e.rows == nRows && e.cols == nCols && e.prec == p) {
            e.hash = hash;
            e.tick = ++cacheTick;
            e.buf = owned;
            return;
        }
    }
    if (cache.size() >= kCacheCapacity) {
        auto lru = std::min_element(
            cache.begin(), cache.end(),
            [](const CacheEntry& a, const CacheEntry& b2) {
                return a.tick < b2.tick;
            });
        cache.erase(lru);
    }
    cache.push_back({b.data(), nRows, nCols, p, hash, ++cacheTick,
                     owned});
    obs::metrics::gauge("engine.panel_cache_entries")
        .set(static_cast<double>(cache.size()));
}

void
clearPreparedDenseCache()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    cacheEntries().clear();
}

} // namespace engine
} // namespace dtc
