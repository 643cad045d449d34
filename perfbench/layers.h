/**
 * @file
 * Per-layer metrics from a traced run.
 *
 * The traced run arms the library's span recorder (obs::trace).  Each
 * call the benchmark makes into a layer's public function is a root
 * span of its own ("bench.submit", "bench.run_batch",
 * "bench.train_step", and "bench.setup" around set-up); the library
 * adds its spans below them.  A span's self time is its duration
 * minus its children's, and every span belongs to the layer (a module
 * under src/) that emits it, so the layer self times of the timed
 * calls add up to their traced end-to-end time.
 */
#ifndef DTC_PERFBENCH_LAYERS_H
#define DTC_PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace dtc {
namespace perfbench {

/** One named metric as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything the layer analysis reads. */
struct TraceInputs
{
    std::vector<obs::SpanRecord> spans;
    std::vector<CallRecord> calls; ///< Timed calls, in order.
    Counters setupCounters;        ///< Counter deltas over set-up.
    double untracedMs = 0.0;       ///< Same calls, tracing disarmed.
    double copyGbps = 0.0;         ///< host.copy_gbps
};

/**
 * Every per-layer metric, always the same names in the same order;
 * a layer a workload does not exercise reads 0.
 */
std::vector<Metric> layerMetrics(const TraceInputs& in);

} // namespace perfbench
} // namespace dtc

#endif // DTC_PERFBENCH_LAYERS_H
