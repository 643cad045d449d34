/**
 * @file
 * perfbench — the repository benchmark's main program.
 *
 *     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 measures the end-to-end metrics: five set-ups (median
 * reported as setup_s), then timed calls until S seconds have passed
 * and the tail percentile has at least ten samples beyond it.
 *
 * --trace 1 measures the per-layer metrics with the same seed: S/2
 * seconds of untraced calls, then the same calls again on fresh state
 * with the library's span recorder armed, then a host copy-bandwidth
 * probe for the roofline.
 *
 * Every response is checked outside the timed calls; the last stdout
 * line is one JSON object {correct, attempted, failed, metrics}.  The
 * exit code is 0 only when every check passed.  --flip-response K
 * flips one bit of the K-th response before its check, which must
 * fail the run (the benchmark's self-test).
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "harness.h"
#include "layers.h"
#include "obs/trace.h"
#include "steer.h"

namespace dtc {
namespace perfbench {
namespace {

/** Set-ups per end-to-end run; setup_s is their median. */
constexpr int kSetups = 5;

/** The last-level cache the roofline's copy arrays must dwarf. */
constexpr size_t kMinLlcBytes = size_t{105} << 20;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 25.0;
    int trace = 0;
    int64_t flipResponse = -1;
};

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank quantile of @p v (sorted in place). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/**
 * Timed calls until @p seconds have passed and at least @p min_calls
 * were made (or, with @p exact_calls > 0, exactly that many).
 */
std::vector<CallRecord>
measure(Workload& w, CpuSteer& steer, double seconds, int64_t min_calls,
        int64_t exact_calls = 0)
{
    // Keeps a slow host within the run's time limit.
    const double cap = std::min(seconds * 4.0 + 20.0, 120.0);
    std::vector<CallRecord> calls;
    const double t0 = nowSec();
    for (;;) {
        steer.beforeCall();
        calls.push_back(w.step());
        const auto made = static_cast<int64_t>(calls.size());
        if (exact_calls > 0) {
            if (made >= exact_calls)
                break;
            continue;
        }
        const double el = nowSec() - t0;
        if ((el >= seconds && made >= min_calls) || el >= cap)
            break;
    }
    return calls;
}

/**
 * Host copy bandwidth: memcpy between two arrays of four times the
 * last-level cache, counting bytes read plus bytes written.
 */
double
copyGbps(size_t* array_bytes)
{
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    const size_t bytes =
        4 * std::max(kMinLlcBytes, llc > 0 ? static_cast<size_t>(llc)
                                           : size_t{0});
    *array_bytes = bytes;
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    std::vector<double> secs;
    for (int rep = 0; rep < 6; ++rep) {
        src[static_cast<size_t>(rep)] = static_cast<char>(rep);
        const double t0 = nowSec();
        std::memcpy(dst.data(), src.data(), bytes);
        secs.push_back(nowSec() - t0);
    }
    if (dst[1] != src[1])
        std::abort();
    secs.erase(secs.begin()); // first pass warms the TLB
    return 2.0 * static_cast<double>(bytes) / quantile(secs, 0.5) / 1e9;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

int64_t
failedCalls(const std::vector<CallRecord>& calls)
{
    return std::count_if(calls.begin(), calls.end(),
                         [](const CallRecord& c) { return c.failed; });
}

int
run(const Args& args)
{
    WorkloadOptions opt;
    opt.seed = args.seed;
    opt.flipResponse = args.flipResponse;
    std::unique_ptr<Workload> w = makeWorkload(args.workload, opt);
    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
                w->name(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);

    CpuSteer steer;
    const auto setup = [&](Workload& wl) {
        steer.beforeCall();
        return wl.setup();
    };
    std::vector<Metric> metrics;
    std::vector<CallRecord> calls;
    int64_t attempted = 0;
    int64_t failed = 0;
    bool finished = true;
    const auto tally = [&](const Workload& wl) {
        attempted += wl.checks().setupAttempted;
        failed += wl.checks().setupFailed;
        std::printf("perfbench: %lld responses checked, %lld "
                    "mismatched, digest %016llx\n",
                    static_cast<long long>(wl.checks().responses),
                    static_cast<long long>(wl.checks().mismatches),
                    static_cast<unsigned long long>(wl.checks().digest));
    };

    if (args.trace == 0) {
        std::vector<double> setups;
        for (int s = 0; s < kSetups; ++s)
            setups.push_back(setup(*w));
        calls = measure(*w, steer, args.seconds, w->minCalls());
        finished = w->finish();
        tally(*w);

        std::vector<double> lat;
        double call_ms = 0.0;
        int64_t completed = 0;
        for (const CallRecord& c : calls) {
            lat.push_back(c.ms);
            call_ms += c.ms;
            if (!c.failed)
                completed += c.requests;
        }
        const double q = w->tailQuantile();
        std::printf("perfbench: %zu timed calls, %lld requests; tail is "
                    "p%g with %lld samples beyond it\n",
                    calls.size(), static_cast<long long>(completed),
                    q * 100.0,
                    static_cast<long long>(
                        calls.size() -
                        static_cast<size_t>(std::ceil(
                            q * static_cast<double>(calls.size())))));
        metrics = {
            {"req_per_s", static_cast<double>(completed) / call_ms * 1e3,
             "1/s"},
            {"latency_p50_ms", quantile(lat, 0.5), "ms"},
            {"latency_tail_ms", quantile(lat, q), "ms"},
            {"setup_s", quantile(setups, 0.5), "s"},
            {"peak_rss_mb", peakRssMib(), "MiB"},
        };
    } else {
        // Untraced pass: fixes the call count and the baseline time.
        setup(*w);
        const std::vector<CallRecord> plain =
            measure(*w, steer, args.seconds / 2.0, 1);
        tally(*w);
        attempted += static_cast<int64_t>(plain.size());
        failed += failedCalls(plain);
        TraceInputs in;
        for (const CallRecord& c : plain)
            in.untracedMs += c.ms;

        // Traced pass: the same seed, so the same calls in order.
        w.reset();
        w = makeWorkload(args.workload, opt);
        obs::trace::clear();
        obs::trace::enable();
        const Counters before = Counters::now();
        setup(*w);
        in.setupCounters.accumulate(before, Counters::now());
        calls = measure(*w, steer, args.seconds, 1,
                        static_cast<int64_t>(plain.size()));
        obs::trace::disable();
        in.spans = obs::trace::snapshot();
        obs::trace::clear();
        finished = w->finish();
        tally(*w);

        size_t array_bytes = 0;
        in.copyGbps = copyGbps(&array_bytes);
        std::printf("perfbench: host.copy_gbps from memcpy between two "
                    "%zu MiB arrays; kernel GB/s and GFLOP/s are "
                    "computed from operand sizes (A's CSR arrays, B "
                    "read once, C written once)\n",
                    array_bytes >> 20);
        in.calls = calls;
        metrics = layerMetrics(in);
    }
    attempted += static_cast<int64_t>(calls.size());
    failed += failedCalls(calls);
    if (!finished)
        ++failed;
    const bool correct = failed == 0;
    std::printf("perfbench: moved to another vCPU %lld times; %lld "
                "calls started with every vCPU contended\n",
                static_cast<long long>(steer.moves()),
                static_cast<long long>(steer.contended()));
    std::printf("perfbench: attempted %lld, failed %lld, failed_share "
                "%.6f\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed),
                static_cast<double>(failed) /
                    static_cast<double>(std::max<int64_t>(attempted, 1)));
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

bool
parseArgs(int argc, char** argv, Args* a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a->workload = val;
            continue;
        }
        if (key == "--seed")
            a->seed = std::strtoull(val, &end, 10);
        else if (key == "--seconds")
            a->seconds = std::strtod(val, &end);
        else if (key == "--trace")
            a->trace = static_cast<int>(std::strtol(val, &end, 10));
        else if (key == "--flip-response")
            a->flipResponse = std::strtoll(val, &end, 10);
        else
            return false;
        if (end == val || *end != '\0')
            return false;
    }
    const auto names = workloadNames();
    return argc % 2 == 1 &&
           std::find(names.begin(), names.end(), a->workload) !=
               names.end() &&
           a->seconds > 0.0 && a->seconds <= 60.0 &&
           (a->trace == 0 || a->trace == 1);
}

} // namespace
} // namespace perfbench
} // namespace dtc

int
main(int argc, char** argv)
{
    dtc::perfbench::Args args;
    if (!dtc::perfbench::parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: %s --workload serve_hot|serve_burst|"
                     "serve_churn|gcn_train [--seed N] [--seconds S] "
                     "[--trace 0|1] [--flip-response K]\n",
                     argv[0]);
        return 2;
    }
    // One library thread: this host gives about one core of
    // throughput, and worker threads made run-to-run spread worse.
    dtc::ScopedNumThreads one_thread(1);
    try {
        return dtc::perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
