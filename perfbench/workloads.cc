/**
 * @file
 * The benchmark's four workloads.
 *
 *   serve_hot    warm prepared-A cache, single submit(...).get() calls
 *   serve_burst  warm prepared-A cache, runBatch bursts of 8 panels
 *   serve_churn  prepared-A cache under pressure, with value updates
 *   gcn_train    full-batch 2-layer GCN training epochs
 *
 * Singles and bursts share their graphs and request classes but are
 * separate workloads, so each gets its own latency percentiles: a
 * batching change that helps one class and hurts the other shows as
 * one workload improving and the other regressing.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/table1.h"
#include "gnn/trainer.h"
#include "gpusim/arch.h"
#include "harness.h"
#include "obs/trace.h"
#include "oracle.h"
#include "serve/service.h"
#include "tuner/tuner.h"

namespace dtc {
namespace perfbench {

namespace {

constexpr std::array<Precision, 2> kPrecisions = {Precision::Fp32,
                                                  Precision::Tf32};

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Independent, reproducible stream @p stream of workload seed @p seed. */
Rng
seededRng(uint64_t seed, uint64_t stream)
{
    Rng mix(seed * 0x9e3779b97f4a7c15ull + stream);
    return Rng(mix.next64());
}

DenseMatrix
randomPanel(int64_t rows, int64_t cols, Rng& rng)
{
    DenseMatrix b(rows, cols);
    b.fillRandom(rng);
    return b;
}

/**
 * A RunReport failure entry that is a modelled prepare refusal (for
 * example DTC-SpMM declining FP32), not a kernel fault.  The runtime
 * records both kinds in one list; these prefixes are how it words the
 * two refusal paths.
 */
bool
isRefusal(const runtime::RunAttempt& att)
{
    return !att.guardMismatch &&
           (att.detail.rfind("prepare refused", 0) == 0 ||
            att.detail.rfind("kind cannot express", 0) == 0);
}

SpmmExec
execOf(const CsrMatrix& a, int64_t n, const runtime::RunReport& rep)
{
    SpmmExec e;
    e.kernel = rep.kernel;
    e.precision = rep.precision;
    e.rows = a.rows();
    e.cols = a.cols();
    e.nnz = a.nnz();
    e.n = n;
    e.attempts = rep.attempts;
    for (const runtime::RunAttempt& att : rep.failures)
        ++(isRefusal(att) ? e.refusals : e.failures);
    return e;
}

/** Serving options shared by the serve workloads. */
serve::ServeOptions
serveOptions(int64_t cache_bytes)
{
    serve::ServeOptions so;
    so.deterministic = true; // inline: no workers, no queue
    so.cacheBytes = cache_bytes;
    return so;
}

/** Base class of the serve workloads: service plus output checks. */
class ServeWorkload : public Workload
{
  protected:
    explicit ServeWorkload(const WorkloadOptions& o)
        : opt(o), cm(ArchSpec::rtx4090())
    {
    }

    /** Checks one response, folds it into the digest. */
    bool
    judge(serve::SubmitResult& res, const PanelOracle& oracle,
          float stamp)
    {
        if (check.responses++ == opt.flipResponse) {
            float* v = res.c.data() + res.c.size() / 2;
            uint32_t bits;
            std::memcpy(&bits, v, sizeof(bits));
            bits ^= 1u;
            std::memcpy(v, &bits, sizeof(bits));
        }
        const bool ok = oracle.check(res.c, stamp, res.report);
        check.fold(res.c.data(), res.c.size() * sizeof(float));
        if (!ok)
            ++check.mismatches;
        return ok;
    }

    /** One timed single request; @p b is consumed. */
    CallRecord
    single(const CsrMatrix& a, serve::MatrixHandle h, DenseMatrix b,
           float stamp, Precision p, const PanelOracle& oracle)
    {
        CallRecord rec;
        rec.kind = CallKind::Single;
        rec.precision = p;
        const int64_t n = b.cols();
        serve::SubmitResult res;
        const Counters before = Counters::now();
        const double t0 = nowMs();
        try {
            DTC_TRACE_SCOPE("bench.submit");
            res = svc->submit(h, std::move(b), p).get();
        } catch (const std::exception& e) {
            rec.ms = nowMs() - t0;
            rec.failed = true;
            std::fprintf(stderr, "perfbench: request failed: %s\n",
                         e.what());
            return rec;
        }
        rec.ms = nowMs() - t0;
        rec.counters.accumulate(before, Counters::now());
        rec.execs.push_back(execOf(a, n, res.report));
        rec.failed = !judge(res, oracle, stamp);
        return rec;
    }

    WorkloadOptions opt;
    CostModel cm;
    std::unique_ptr<serve::SpmmService> svc;
};

/**
 * serve_hot / serve_burst: four Table-1-class graphs, all prepared in
 * set-up; each call draws its graph x precision {FP32, TF32} x width
 * {16, 128} class from a seeded deck and brings freshly stamped Bs.
 */
class ServeWarm final : public ServeWorkload
{
  public:
    static constexpr int64_t kBurst = 8;
    static constexpr std::array<int64_t, 2> kWidths = {16, 128};

    ServeWarm(CallKind kind, double scale, const WorkloadOptions& o)
        : ServeWorkload(o), mode(kind), pick(seededRng(o.seed, 1))
    {
        Rng rng = seededRng(o.seed, 2);
        const auto sz = [scale](int64_t n) {
            return static_cast<int64_t>(static_cast<double>(n) * scale);
        };
        // One graph per structural class of Table 1, sized so that a
        // single request takes about 1-10 ms on one core.
        const int64_t rmat_n = sz(12288);
        std::vector<CsrMatrix> as;
        as.push_back(genComponents(sz(15000), 8, 28, 0.10, rng));
        as.push_back(genRmat(rmat_n, rmat_n * 11, 0.57, 0.19, 0.19, rng));
        as.push_back(genCommunity(sz(2048), 8, 200.0, 0.80, rng));
        as.push_back(genUniform(sz(1024), 400.0 * scale, rng));
        graphs.resize(as.size());
        for (size_t g = 0; g < as.size(); ++g) {
            Graph& gr = graphs[g];
            gr.a = shuffleLabels(as[g], rng);
            for (size_t w = 0; w < kWidths.size(); ++w) {
                gr.base[w] = randomPanel(gr.a.cols(), kWidths[w], rng);
                gr.oracle[w] =
                    std::make_unique<PanelOracle>(gr.a, gr.base[w]);
                if (mode == CallKind::Burst)
                    gr.burst[w].assign(kBurst, gr.base[w]);
            }
        }
    }

    const char*
    name() const override
    {
        return mode == CallKind::Burst ? "serve_burst" : "serve_hot";
    }

    double
    tailQuantile() const override
    {
        return mode == CallKind::Burst ? 0.95 : 0.99;
    }

    int64_t
    minCalls() const override
    {
        return mode == CallKind::Burst ? 200 : 1000;
    }

    double
    setup() override
    {
        svc.reset();
        // Inputs first, outside the timed region: one warm-up request
        // per graph x precision x width.
        struct Warm
        {
            size_t g, w;
            Precision p;
            float stamp;
            DenseMatrix b;
        };
        std::vector<Warm> warm;
        for (size_t g = 0; g < graphs.size(); ++g)
            for (Precision p : kPrecisions)
                for (size_t w = 0; w < kWidths.size(); ++w) {
                    Warm x{g, w, p, nextStamp(), graphs[g].base[w]};
                    applyStamp(x.b, x.stamp);
                    warm.push_back(std::move(x));
                }

        std::vector<serve::SubmitResult> res;
        const double t0 = nowMs();
        {
            DTC_TRACE_SCOPE("bench.setup");
            svc = std::make_unique<serve::SpmmService>(
                serveOptions(int64_t{1} << 32), &cm);
            handles.clear();
            for (const Graph& gr : graphs)
                handles.push_back(svc->attach(gr.a));
            for (Warm& x : warm)
                res.push_back(
                    svc->submit(handles[x.g], std::move(x.b), x.p).get());
        }
        const double secs = (nowMs() - t0) / 1e3;
        for (size_t i = 0; i < warm.size(); ++i) {
            ++check.setupAttempted;
            if (!judge(res[i], *graphs[warm[i].g].oracle[warm[i].w],
                       warm[i].stamp))
                ++check.setupFailed;
        }
        return secs;
    }

    CallRecord
    step() override
    {
        // Every class once per deck, in seeded order, so a run's class
        // mix is fixed.  Class 0 comes twice: with an odd deck the
        // median (and the tail) falls inside one class's latencies,
        // never on the gap between two classes, where it would jump
        // between them from run to run.
        if (deck.empty()) {
            for (size_t c = 0; c < graphs.size() * 2 * kWidths.size(); ++c)
                deck.push_back(c);
            deck.push_back(0);
            pick.shuffle(deck);
        }
        const size_t c = deck.back();
        deck.pop_back();
        const size_t g = c / (2 * kWidths.size());
        const Precision p = kPrecisions[c / kWidths.size() % 2];
        const size_t w = c % kWidths.size();
        Graph& gr = graphs[g];
        if (mode == CallKind::Single) {
            DenseMatrix b = gr.base[w];
            const float stamp = nextStamp();
            applyStamp(b, stamp);
            return single(gr.a, handles[g], std::move(b), stamp, p,
                          *gr.oracle[w]);
        }
        return burst(gr, handles[g], w, p);
    }

  private:
    struct Graph
    {
        CsrMatrix a;
        std::array<DenseMatrix, kWidths.size()> base;
        std::array<std::unique_ptr<PanelOracle>, kWidths.size()> oracle;
        /** Burst panels, restamped in place before every burst. */
        std::array<std::vector<DenseMatrix>, kWidths.size()> burst;
    };

    CallRecord
    burst(Graph& gr, serve::MatrixHandle h, size_t w, Precision p)
    {
        std::vector<DenseMatrix>& panels = gr.burst[w];
        std::array<float, kBurst> stamps;
        for (int64_t i = 0; i < kBurst; ++i) {
            stamps[i] = nextStamp();
            applyStamp(panels[i], stamps[i]);
        }
        CallRecord rec;
        rec.kind = CallKind::Burst;
        rec.precision = p;
        rec.requests = kBurst;
        std::vector<serve::SubmitResult> res;
        const Counters before = Counters::now();
        const double t0 = nowMs();
        try {
            DTC_TRACE_SCOPE("bench.run_batch");
            res = svc->runBatch(h, panels, p);
        } catch (const std::exception& e) {
            rec.ms = nowMs() - t0;
            rec.failed = true;
            std::fprintf(stderr, "perfbench: burst failed: %s\n",
                         e.what());
            return rec;
        }
        rec.ms = nowMs() - t0;
        rec.counters.accumulate(before, Counters::now());
        // runBatch runs a burst as one execution over the wide panel.
        rec.execs.push_back(
            execOf(gr.a, kBurst * kWidths[w], res.front().report));
        for (int64_t i = 0; i < kBurst; ++i)
            if (!judge(res[i], *gr.oracle[w], stamps[i]))
                rec.failed = true;
        return rec;
    }

    CallKind mode;
    Rng pick; ///< The seeded request sequence.
    std::vector<size_t> deck; ///< Classes left in the current deck.
    std::vector<Graph> graphs;
    std::vector<serve::MatrixHandle> handles;
};

/**
 * serve_churn: more graphs than the prepared-A cache holds, drawn
 * with Zipf popularity; some requests follow an in-place update of
 * their graph's values (a new content hash, so a fresh prepare).
 */
class ServeChurn final : public ServeWorkload
{
  public:
    static constexpr size_t kGraphs = 24;
    static constexpr int64_t kCachedEntries = 16;
    static constexpr double kZipfSkew = 1.2;
    static constexpr double kUpdateShare = 0.02;
    static constexpr int64_t kWidth = 32;

    explicit ServeChurn(const WorkloadOptions& o)
        : ServeWorkload(o), pick(seededRng(o.seed, 1)),
          valueRng(seededRng(o.seed, 3))
    {
        Rng rng = seededRng(o.seed, 2);
        graphs.resize(kGraphs);
        int64_t bytes = 0;
        for (Graph& gr : graphs) {
            gr.a = shuffleLabels(genCommunity(3000, 16, 16.0, 0.80, rng),
                                 rng);
            gr.base = randomPanel(gr.a.cols(), kWidth, rng);
            gr.oracle = std::make_unique<PanelOracle>(gr.a, gr.base);
            bytes += serve::PreparedCache::entryBytes(gr.a);
        }
        // Room for kCachedEntries (graph, precision) entries of the
        // 2 * kGraphs the requests touch: about a third of requests
        // miss under the skew and update rate above.
        cacheBytes = bytes / static_cast<int64_t>(kGraphs) * kCachedEntries;
    }

    const char* name() const override { return "serve_churn"; }
    double tailQuantile() const override { return 0.99; }
    int64_t minCalls() const override { return 1000; }

    double
    setup() override
    {
        svc.reset();
        // Fill the cache once, most popular graphs first.
        struct Warm
        {
            size_t g;
            Precision p;
            float stamp;
            DenseMatrix b;
        };
        std::vector<Warm> warm;
        for (size_t g = 0; warm.size() < kCachedEntries; ++g)
            for (Precision p : kPrecisions) {
                Warm x{g, p, nextStamp(), graphs[g].base};
                applyStamp(x.b, x.stamp);
                warm.push_back(std::move(x));
            }

        std::vector<serve::SubmitResult> res;
        const double t0 = nowMs();
        {
            DTC_TRACE_SCOPE("bench.setup");
            svc = std::make_unique<serve::SpmmService>(
                serveOptions(cacheBytes), &cm);
            handles.clear();
            for (const Graph& gr : graphs)
                handles.push_back(svc->attach(gr.a));
            for (Warm& x : warm)
                res.push_back(
                    svc->submit(handles[x.g], std::move(x.b), x.p).get());
        }
        const double secs = (nowMs() - t0) / 1e3;
        for (size_t i = 0; i < warm.size(); ++i) {
            ++check.setupAttempted;
            if (!judge(res[i], *graphs[warm[i].g].oracle, warm[i].stamp))
                ++check.setupFailed;
        }
        return secs;
    }

    CallRecord
    step() override
    {
        const size_t g = pick.nextZipf(kGraphs, kZipfSkew);
        Graph& gr = graphs[g];
        if (pick.nextBernoulli(kUpdateShare)) {
            // The write path, outside the timed call.
            for (float& v : gr.a.values())
                v = valueRng.nextFloat(0.5f, 1.5f);
            gr.oracle = std::make_unique<PanelOracle>(gr.a, gr.base);
        }
        const Precision p = kPrecisions[pick.nextBounded(2)];
        DenseMatrix b = gr.base;
        const float stamp = nextStamp();
        applyStamp(b, stamp);
        return single(gr.a, handles[g], std::move(b), stamp, p,
                      *gr.oracle);
    }

  private:
    struct Graph
    {
        CsrMatrix a;
        DenseMatrix base;
        std::unique_ptr<PanelOracle> oracle;
    };

    Rng pick;     ///< Request sequence: graph, update, precision.
    Rng valueRng; ///< Values written by updates.
    std::vector<Graph> graphs;
    std::vector<serve::MatrixHandle> handles;
    int64_t cacheBytes = 0;
};

/** SpmmKernel decorator that spans every compute(). */
class SpannedKernel final : public SpmmKernel
{
  public:
    explicit SpannedKernel(std::unique_ptr<SpmmKernel> k)
        : inner(std::move(k))
    {
    }

    std::string name() const override { return inner->name(); }
    Refusal prepare(const CsrMatrix& a) override
    {
        return inner->prepare(a);
    }
    bool prepared() const override { return inner->prepared(); }

    void
    compute(const DenseMatrix& b, DenseMatrix& c) const override
    {
        DTC_TRACE_SCOPE("bench.spmm");
        inner->compute(b, c);
    }

    LaunchResult
    cost(int64_t n, const CostModel& cm) const override
    {
        return inner->cost(n, cm);
    }

  private:
    std::unique_ptr<SpmmKernel> inner;
};

/**
 * gcn_train: full-batch 2-layer GCN on the IGB-tiny analog of the
 * Fig. 16 case study, the kernel chosen by tuneSpmm and bound through
 * GcnModel's fixed-kernel constructor.
 */
class GcnTrain final : public Workload
{
  public:
    static constexpr int64_t kFeatures = 64;
    static constexpr int64_t kHidden = 64;
    static constexpr int64_t kClasses = 8;
    /** SpMMs per epoch: two forward, two backward. */
    static constexpr int kSpmmsPerEpoch = 4;
    /** Final-epoch accuracy floor (chance is 1/8). */
    static constexpr double kAccuracyFloor = 0.25;

    explicit GcnTrain(const WorkloadOptions& o) : cm(ArchSpec::rtx4090())
    {
        Table1Entry e = gnnCaseStudyEntries()[2];
        // Seed 1 is the library's own IGB-tiny analog.
        e.seed += o.seed - 1;
        adj = e.make();
        makeClassificationTask(adj, kFeatures, kClasses, e.seed, &x,
                               &labels);
        cfg.hidden = kHidden;
        cfg.classes = kClasses;
        cfg.seed = e.seed;
    }

    const char* name() const override { return "gcn_train"; }
    double tailQuantile() const override { return 0.90; }
    int64_t minCalls() const override { return 100; }

    double
    setup() override
    {
        model.reset();
        TuneRequest req;
        req.denseWidth = kFeatures;
        const double t0 = nowMs();
        {
            DTC_TRACE_SCOPE("bench.setup");
            KernelKind kind;
            {
                DTC_TRACE_SCOPE("bench.tune");
                kind = tuneSpmm(adj, req, cm).best().kind;
            }
            DTC_TRACE_SCOPE("bench.gcn_model");
            model = std::make_unique<GcnModel>(
                adj, std::make_unique<SpannedKernel>(makeKernel(kind)),
                kFeatures, cfg);
            precision = kernelTraits(kind).nativePrecision;
        }
        const double secs = (nowMs() - t0) / 1e3;
        firstLoss = std::numeric_limits<double>::quiet_NaN();
        finite = true;
        return secs;
    }

    CallRecord
    step() override
    {
        CallRecord rec;
        rec.kind = CallKind::Epoch;
        rec.precision = precision;
        double acc = 0.0;
        double loss = 0.0;
        const Counters before = Counters::now();
        const double t0 = nowMs();
        try {
            DTC_TRACE_SCOPE("bench.train_step");
            loss = model->trainStep(x, labels, &acc);
        } catch (const std::exception& e) {
            rec.ms = nowMs() - t0;
            rec.failed = true;
            std::fprintf(stderr, "perfbench: epoch failed: %s\n",
                         e.what());
            return rec;
        }
        rec.ms = nowMs() - t0;
        rec.counters.accumulate(before, Counters::now());
        SpmmExec e;
        e.kernel = model->kernel().name();
        e.precision = precision;
        e.rows = adj.rows();
        e.cols = adj.cols();
        e.nnz = adj.nnz();
        e.n = kHidden; // every SpMM of the epoch is 64 wide
        rec.execs.assign(kSpmmsPerEpoch, e);

        ++check.responses;
        check.fold(&loss, sizeof(loss));
        check.fold(&acc, sizeof(acc));
        if (!std::isfinite(loss)) {
            finite = false;
            rec.failed = true;
        }
        if (std::isnan(firstLoss))
            firstLoss = loss;
        lastLoss = loss;
        lastAccuracy = acc;
        return rec;
    }

    bool
    finish() override
    {
        std::printf("gcn_train: loss %.6f -> %.6f, final accuracy %.4f "
                    "(floor %.2f)\n",
                    firstLoss, lastLoss, lastAccuracy, kAccuracyFloor);
        return finite && lastLoss < firstLoss &&
               lastAccuracy > kAccuracyFloor;
    }

  private:
    CostModel cm;
    CsrMatrix adj;
    DenseMatrix x;
    std::vector<int32_t> labels;
    TrainerConfig cfg;
    std::unique_ptr<GcnModel> model;
    Precision precision = Precision::Fp32;

    double firstLoss = std::numeric_limits<double>::quiet_NaN();
    double lastLoss = 0.0;
    double lastAccuracy = 0.0;
    bool finite = true;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const WorkloadOptions& opt)
{
    if (name == "serve_hot")
        return std::make_unique<ServeWarm>(CallKind::Single, 1.0, opt);
    if (name == "serve_burst")
        // Half-size graphs: a burst of 8 wide panels costs about as
        // much as 8 singles, and a run needs 200 of them.
        return std::make_unique<ServeWarm>(CallKind::Burst, 0.5, opt);
    if (name == "serve_churn")
        return std::make_unique<ServeChurn>(opt);
    if (name == "gcn_train")
        return std::make_unique<GcnTrain>(opt);
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    return {"serve_hot", "serve_burst", "serve_churn", "gcn_train"};
}

} // namespace perfbench
} // namespace dtc
