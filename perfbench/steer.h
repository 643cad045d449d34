/**
 * @file
 * Keeps the benchmark thread on a vCPU that runs at full speed.
 *
 * On a shared virtual host a vCPU's vector throughput drops to about
 * half while a co-located thread contends for the same core, and the
 * contention moves between vCPUs every few seconds.  Left alone, that
 * swings GCN epoch medians by 30% from one run to the next.  Before
 * each timed call (and set-up) the benchmark times a short vector
 * probe; when it reads slow, the thread moves to the next vCPU in its
 * affinity mask that probes fast.  The probe and the move happen
 * outside the timed region, so what is timed is the library on an
 * uncontended core.  With one allowed vCPU, or when affinity cannot be
 * set, steering does nothing.
 */
#ifndef DTC_PERFBENCH_STEER_H
#define DTC_PERFBENCH_STEER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dtc {
namespace perfbench {

class CpuSteer
{
  public:
    /** Reads the affinity mask and the probe's uncontended time. */
    CpuSteer();

    /** Restores the affinity mask the process started with. */
    ~CpuSteer();

    CpuSteer(const CpuSteer&) = delete;
    CpuSteer& operator=(const CpuSteer&) = delete;

    /** Moves to a full-speed vCPU if the current one is contended. */
    void beforeCall();

    int64_t moves() const { return nMoves; }
    /** Calls that started with every vCPU probing slow. */
    int64_t contended() const { return nContended; }

  private:
    /** Probe time in microseconds on the current vCPU. */
    double probeUs();

    bool pin(int cpu);

    std::vector<int> cpus; ///< Allowed vCPUs; empty = no steering.
    size_t current = 0;
    double fastUs = 0.0;   ///< Lowest probe time seen.
    int64_t nMoves = 0;
    int64_t nContended = 0;
};

} // namespace perfbench
} // namespace dtc

#endif // DTC_PERFBENCH_STEER_H
