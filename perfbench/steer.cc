#include "steer.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <limits>

namespace dtc {
namespace perfbench {

namespace {

/**
 * Contention slows the probe by about 1.85x for seconds at a time;
 * lighter, faster-changing interference stays below this factor.
 */
constexpr double kSlowFactor = 1.5;

constexpr int kM = 128;
constexpr int kK = 64;
constexpr int kN = 64;

/** C = A * B over small cache-resident panels: vector FMA throughput. */
__attribute__((noinline)) float
probeKernel(const float* a, const float* b, float* c)
{
    for (int i = 0; i < kM; ++i) {
        float* cr = c + i * kN;
        std::fill(cr, cr + kN, 0.0f);
        for (int k = 0; k < kK; ++k) {
            const float av = a[i * kK + k];
            const float* br = b + k * kN;
            for (int j = 0; j < kN; ++j)
                cr[j] += av * br[j];
        }
    }
    return c[kM * kN - 1];
}

} // namespace

CpuSteer::CpuSteer()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    if (cpus.size() < 2) {
        cpus.clear();
        return;
    }
    // The uncontended probe time: the fastest of a few probes on
    // every allowed vCPU; then start on the vCPU that gave it.
    fastUs = std::numeric_limits<double>::infinity();
    size_t best = 0;
    for (size_t i = 0; i < cpus.size(); ++i) {
        if (!pin(cpus[i])) {
            cpus.clear();
            return;
        }
        for (int rep = 0; rep < 3; ++rep) {
            const double us = probeUs();
            if (us < fastUs) {
                fastUs = us;
                best = i;
            }
        }
    }
    current = best;
    pin(cpus[current]);
}

CpuSteer::~CpuSteer()
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

bool
CpuSteer::pin(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double
CpuSteer::probeUs()
{
    static float a[kM * kK], b[kK * kN], c[kM * kN];
    // The fastest of three: one interrupt or short burst of
    // interference does not read as contention.
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        // Feeding the result back keeps every probe live.
        a[0] = probeKernel(a, b, c);
        best = std::min(best, std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

void
CpuSteer::beforeCall()
{
    if (cpus.empty())
        return;
    const auto fast = [this](double us) {
        fastUs = std::min(fastUs, us);
        return us <= kSlowFactor * fastUs;
    };
    if (fast(probeUs()))
        return;
    for (size_t step = 1; step < cpus.size(); ++step) {
        const size_t next = (current + step) % cpus.size();
        if (!pin(cpus[next]))
            continue;
        current = next;
        if (fast(probeUs())) {
            ++nMoves;
            return;
        }
    }
    ++nContended;
}

} // namespace perfbench
} // namespace dtc
