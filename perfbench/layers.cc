#include "layers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

namespace dtc {
namespace perfbench {

namespace {

enum Layer
{
    Serve,
    Tuner,
    Runtime,
    Kernels,
    Formats,
    Engine,
    Gnn,
    Other,
    kLayers,
};

constexpr std::array<const char*, kLayers> kLayerNames = {
    "serve", "tuner", "runtime", "kernels",
    "formats", "engine", "gnn", "other",
};

/** Served-kernel names reported as kernels.served_share.<name>. */
constexpr std::array<const char*, 7> kServedKernels = {
    "DTC-SpMM",   "cuSPARSE-SpMM",    "Sputnik", "SparseTIR",
    "TCGNN-SpMM", "reference_double", "other",
};

/** The module that emits span @p name. */
Layer
layerOf(const std::string& name)
{
    static const std::map<std::string, Layer> exact = {
        {"bench.submit", Serve},      {"bench.run_batch", Serve},
        {"bench.tune", Tuner},        {"bench.spmm", Kernels},
        {"bench.train_step", Gnn},    {"bench.gcn_model", Gnn},
        {"runtime.compute", Kernels},
    };
    if (auto it = exact.find(name); it != exact.end())
        return it->second;
    static const std::map<std::string, Layer> prefix = {
        {"serve", Serve},     {"tuner", Tuner},   {"runtime", Runtime},
        {"dtc", Kernels},     {"metcf", Formats}, {"sgt", Formats},
        {"engine", Engine},   {"gnn", Gnn},
    };
    if (auto it = prefix.find(name.substr(0, name.find('.')));
        it != prefix.end())
        return it->second;
    return Other;
}

bool
isCallRoot(const std::string& name)
{
    return name == "bench.submit" || name == "bench.run_batch" ||
           name == "bench.train_step";
}

/** The span that runs the kernel: its time minus B preparation. */
bool
isCompute(const std::string& name)
{
    return name == "runtime.compute" || name == "bench.spmm";
}

/** Kernel name reduced to [A-Za-z0-9_.-], or "other". */
std::string
servedName(const std::string& kernel)
{
    std::string out;
    for (char ch : kernel) {
        const bool ok = (ch >= 'a' && ch <= 'z') ||
                        (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '_' ||
                        ch == '.' || ch == '-';
        if (ok)
            out += ch;
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    for (const char* k : kServedKernels)
        if (out == k)
            return out;
    return "other";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sum and count of span durations, in ms. */
struct Tally
{
    double ms = 0.0;
    int64_t n = 0;

    void
    add(double us)
    {
        ms += us / 1e3;
        ++n;
    }
    double mean() const { return ratio(ms, static_cast<double>(n)); }
};

} // namespace

std::vector<Metric>
layerMetrics(const TraceInputs& in)
{
    const std::vector<obs::SpanRecord>& sp = in.spans;
    const size_t n = sp.size();

    // Span forest: snapshot() orders by (thread, start); a parent
    // starts no later than its child and sits one level shallower.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        if (sp[x].tid != sp[y].tid)
            return sp[x].tid < sp[y].tid;
        if (sp[x].tsUs != sp[y].tsUs)
            return sp[x].tsUs < sp[y].tsUs;
        return sp[x].depth < sp[y].depth;
    });
    std::vector<int64_t> parent(n, -1), root(n), compute(n, -1);
    std::vector<double> childUs(n, 0.0);
    std::vector<size_t> stack;
    for (size_t idx = 0; idx < n; ++idx) {
        const size_t i = order[idx];
        while (!stack.empty() &&
               (sp[stack.back()].tid != sp[i].tid ||
                sp[stack.back()].depth >= sp[i].depth))
            stack.pop_back();
        if (!stack.empty()) {
            parent[i] = static_cast<int64_t>(stack.back());
            childUs[stack.back()] += sp[i].durUs;
            root[i] = root[stack.back()];
            compute[i] = compute[stack.back()];
        } else {
            root[i] = static_cast<int64_t>(i);
        }
        if (isCompute(sp[i].name))
            compute[i] = static_cast<int64_t>(i);
        stack.push_back(i);
    }

    // Timed calls are the call roots, in start order.
    std::vector<int64_t> callOf(n, -1);
    int64_t calls = 0;
    for (size_t idx = 0; idx < n; ++idx) {
        const size_t i = order[idx];
        if (parent[i] < 0 && isCallRoot(sp[i].name))
            callOf[i] = calls++;
    }
    if (calls != static_cast<int64_t>(in.calls.size()))
        std::fprintf(stderr,
                     "perfbench: %lld call spans for %zu calls\n",
                     static_cast<long long>(calls), in.calls.size());
    calls = std::min<int64_t>(calls, in.calls.size());

    std::array<double, kLayers> layerMs{};
    double e2eMs = 0.0;
    Tally acquire, pack, runtimeRun, guard, computeSpans, prepDense;
    Tally tune, prepare, metcf, gnnSpmm;
    double runtimeSelfMs = 0.0;
    std::array<double, 3> serveSelfMs{}; // by CallKind
    std::vector<double> prepInCompute(n, 0.0);

    for (size_t i = 0; i < n; ++i) {
        const std::string& name = sp[i].name;
        // Set-up work counts too, for the one-time layers.
        if (name == "tuner.tune")
            tune.add(sp[i].durUs);
        else if (name == "runtime.prepare")
            prepare.add(sp[i].durUs);
        else if (name == "metcf.convert")
            metcf.add(sp[i].durUs);

        const int64_t k = callOf[root[i]];
        if (k < 0 || k >= calls)
            continue;
        const CallRecord& call = in.calls[k];
        const double selfMs = (sp[i].durUs - childUs[i]) / 1e3;
        const Layer layer = layerOf(name);
        layerMs[layer] += selfMs;
        if (parent[i] < 0)
            e2eMs += sp[i].durUs / 1e3;
        if (layer == Serve && name != "serve.cache.acquire" &&
            name != "serve.batch.pack")
            serveSelfMs[static_cast<int>(call.kind)] += selfMs;
        if (name == "serve.cache.acquire")
            acquire.add(sp[i].durUs);
        else if (name == "serve.batch.pack")
            pack.add(sp[i].durUs);
        else if (name == "runtime.run") {
            runtimeRun.add(sp[i].durUs);
            runtimeSelfMs += selfMs;
        } else if (name == "runtime.guard")
            guard.add(sp[i].durUs);
        else if (name == "engine.prepare_dense") {
            prepDense.add(sp[i].durUs);
            if (compute[i] >= 0)
                prepInCompute[compute[i]] += sp[i].durUs / 1e3;
        }
        if (name == "bench.spmm")
            gnnSpmm.add(sp[i].durUs);
        if (isCompute(name))
            computeSpans.add(sp[i].durUs);
    }

    // Kernel time per precision: compute spans minus B preparation.
    Tally kernelFp32, kernelTf32;
    for (size_t i = 0; i < n; ++i) {
        const int64_t k = callOf[root[i]];
        if (k < 0 || k >= calls || !isCompute(sp[i].name))
            continue;
        const double us =
            sp[i].durUs - prepInCompute[i] * 1e3;
        (in.calls[k].precision == Precision::Fp32 ? kernelFp32
                                                  : kernelTf32)
            .add(us);
    }

    Counters callCounters;
    int64_t requests = 0, singles = 0, bursts = 0, epochs = 0;
    int64_t execs = 0, attempts = 0, refusals = 0, failures = 0;
    double flops = 0.0, bytes = 0.0, tracedMs = 0.0;
    std::map<std::string, int64_t> served;
    for (int64_t k = 0; k < calls; ++k) {
        const CallRecord& c = in.calls[k];
        for (int j = 0; j < Counters::kCount; ++j)
            callCounters.v[j] += c.counters.v[j];
        requests += c.requests;
        tracedMs += c.ms;
        singles += c.kind == CallKind::Single;
        bursts += c.kind == CallKind::Burst;
        epochs += c.kind == CallKind::Epoch;
        for (const SpmmExec& e : c.execs) {
            ++execs;
            attempts += e.attempts;
            refusals += e.refusals;
            failures += e.failures;
            flops += e.flops();
            bytes += e.bytes();
            ++served[servedName(e.kernel)];
        }
    }
    Counters all = in.setupCounters;
    for (int j = 0; j < Counters::kCount; ++j)
        all.v[j] += callCounters.v[j];

    const double kernelMs = kernelFp32.ms + kernelTf32.ms;
    const double gflops = ratio(flops, kernelMs * 1e6);
    const double gbps = ratio(bytes, kernelMs * 1e6);
    const double dx = static_cast<double>(execs);
    const double dcalls = static_cast<double>(calls);
    const double dense = e2eMs - gnnSpmm.ms;
    const auto c = [&](Counters::Index i) {
        return static_cast<double>(callCounters[i]);
    };
    const auto a = [&](Counters::Index i) {
        return static_cast<double>(all[i]);
    };
    // gcn_train has no prepared-A cache: its one set-up is its one
    // cold A.
    const double misses = std::max(a(Counters::CacheMisses), 1.0);

    std::vector<Metric> m = {
        {"serve.acquire_ms", acquire.mean(), "ms"},
        {"serve.pack_ms", pack.mean(), "ms"},
        {"serve.self_ms.single",
         ratio(serveSelfMs[static_cast<int>(CallKind::Single)],
               static_cast<double>(singles)),
         "ms"},
        {"serve.self_ms.burst",
         ratio(serveSelfMs[static_cast<int>(CallKind::Burst)],
               static_cast<double>(bursts)),
         "ms"},
        {"serve.cache_hit_ratio",
         ratio(c(Counters::CacheHits),
               c(Counters::CacheHits) + c(Counters::CacheMisses)),
         "1"},
        {"serve.cache_evictions",
         ratio(c(Counters::CacheEvictions),
               static_cast<double>(requests)),
         "1/req"},
        {"tuner.tune_ms", tune.mean(), "ms"},
        {"tuner.candidates_per_tune",
         ratio(a(Counters::CandidatesEvaluated), a(Counters::Tunes)),
         "1/tune"},
        {"runtime.prepare_ms", prepare.mean(), "ms"},
        {"runtime.self_ms",
         ratio(runtimeSelfMs, static_cast<double>(runtimeRun.n)), "ms"},
        {"runtime.guard_ms",
         ratio(guard.ms, static_cast<double>(runtimeRun.n)), "ms"},
        {"runtime.guard_share", ratio(guard.ms, computeSpans.ms), "1"},
        {"runtime.attempts_per_request",
         runtimeRun.n > 0 ? ratio(static_cast<double>(attempts), dx)
                          : 0.0,
         "1/req"},
        {"runtime.refused_attempts",
         ratio(static_cast<double>(refusals), dx), "1/req"},
        {"runtime.failed_attempts",
         ratio(static_cast<double>(failures), dx), "1/req"},
        {"formats.metcf_convert_ms", metcf.mean(), "ms"},
        {"formats.metcf_builds_per_miss",
         ratio(a(Counters::MetcfBuilds), misses), "1/miss"},
        {"kernels.compute_ms.fp32", kernelFp32.mean(), "ms"},
        {"kernels.compute_ms.tf32", kernelTf32.mean(), "ms"},
        {"kernels.gflops", gflops, "GFLOP/s"},
        {"kernels.gbps_computed", gbps, "GB/s"},
        {"kernels.roofline_share", ratio(gbps, in.copyGbps), "1"},
    };
    for (const char* k : kServedKernels)
        m.push_back({std::string("kernels.served_share.") + k,
                     ratio(static_cast<double>(served[k]), dx), "1"});
    m.insert(
        m.end(),
        {
            {"engine.prepare_dense_ms", ratio(prepDense.ms, dx), "ms"},
            {"engine.b_round_elems", ratio(c(Counters::BRoundOps), dx),
             "elem/spmm"},
            {"engine.panel_hit_ratio",
             ratio(c(Counters::PanelHits),
                   c(Counters::PanelHits) + c(Counters::PanelMisses)),
             "1"},
            {"gnn.spmm_ms",
             ratio(gnnSpmm.ms, static_cast<double>(epochs)), "ms"},
            {"gnn.dense_ms",
             epochs > 0 ? ratio(dense, static_cast<double>(epochs)) : 0.0,
             "ms"},
            {"gnn.spmm_share", epochs > 0 ? ratio(gnnSpmm.ms, e2eMs) : 0.0,
             "1"},
            {"host.copy_gbps", in.copyGbps, "GB/s"},
            {"trace.e2e_ms", ratio(e2eMs, dcalls), "ms"},
            {"trace.overhead_share",
             in.untracedMs > 0.0 ? tracedMs / in.untracedMs - 1.0 : 0.0,
             "1"},
        });
    double layerSum = 0.0;
    for (double v : layerMs)
        layerSum += v;
    m.push_back({"trace.layer_sum_share", ratio(layerSum, e2eMs), "1"});
    for (int l = 0; l < kLayers; ++l)
        m.push_back({std::string("layers.") + kLayerNames[l] + ".self_ms",
                     ratio(layerMs[l], dcalls), "ms"});
    return m;
}

} // namespace perfbench
} // namespace dtc
