#include "workloads.hh"

#include <cmath>
#include <stdexcept>

#include "kernels/aes128.hh"
#include "kernels/lz_compress.hh"
#include "kernels/serde.hh"
#include "kernels/sha256.hh"
#include "microsim/ab_test.hh"
#include "microsim/service_graph.hh"
#include "microsim/service_spec.hh"
#include "model/accelerometer.hh"
#include "model/fleet.hh"
#include "probe.hh"
#include "profiling/aggregator.hh"
#include "profiling/sampler.hh"
#include "replays.hh"
#include "util/rng.hh"
#include "workload/profiles.hh"
#include "workload/request_factory.hh"

namespace perfbench {

std::uint64_t
fnv1a(const void *data, size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

using namespace accel;
using microsim::CallStyle;
using microsim::EdgeConfig;
using microsim::GraphMetrics;
using microsim::ServiceGraph;
using microsim::ServiceSpec;

std::uint64_t
fnvDouble(double v, std::uint64_t h)
{
    return fnv1a(&v, sizeof v, h);
}

/** All graph workloads run on a 1 GHz clock: one cycle is one tick. */
constexpr double kClockGHz = 1.0;

/** Host-only Sync service; rootsPerSec > 0 makes it an open-loop root. */
ServiceSpec
hostTier(const std::string &name, std::uint32_t threads,
         double rootsPerSec, double meanCycles, std::uint64_t seed)
{
    microsim::ServiceConfig cfg;
    cfg.cores = threads;
    cfg.threads = threads;
    cfg.design = model::ThreadingDesign::Sync;
    cfg.clockGHz = kClockGHz;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = rootsPerSec;
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = meanCycles;
    w.nonKernelCv = 0.2;
    w.kernelsPerRequest = 0;
    return ServiceSpec(name)
        .service(cfg)
        .accelerator(microsim::AcceleratorConfig{})
        .workload(w)
        .seed(seed);
}

/**
 * Digest, count and check one graph op's metrics. Graph ops measure
 * from tick 0 (no warm-up window): the op times host cost, not a
 * simulated steady state, and without a window edge every root that
 * completes also started in the window, so root accounting is exact.
 */
void
finishGraphOp(const GraphMetrics &m, OpResult &r)
{
    double visits = 0;
    for (const microsim::GraphNodeMetrics &n : m.nodes)
        visits += static_cast<double>(n.service.requestsCompleted);
    double calls = 0, attempts = 0, completed = 0, timeouts = 0;
    for (const microsim::EdgeStats &e : m.edges) {
        calls += static_cast<double>(e.callsIssued);
        attempts += static_cast<double>(e.attemptsIssued);
        completed += static_cast<double>(e.callsCompleted);
        timeouts += static_cast<double>(e.attemptsTimedOut);
    }
    double offloads = 0, hedges = 0, wasted = 0, useful = 0;
    for (const microsim::SharedTierMetrics &t : m.sharedTiers) {
        offloads += static_cast<double>(t.tierStats.offloads);
        hedges += static_cast<double>(t.tierStats.hedgesIssued);
        wasted += t.tierStats.wastedServiceCycles;
        useful += t.tierStats.usefulServiceCycles;
    }
    {
        Tracer::Scope span("stats.report");
        r.digest = fnv1a(m.summaryJson());
    }
    r.items = static_cast<std::uint64_t>(visits);
    r.counts = {{"visits", visits},
                {"roots", static_cast<double>(m.rootsCompleted)},
                {"degraded_roots", static_cast<double>(m.rootsDegraded)},
                {"calls", calls},
                {"attempts", attempts},
                {"calls_completed", completed},
                {"attempt_timeouts", timeouts},
                {"offloads", offloads},
                {"hedges", hedges},
                {"tier_wasted_cycles", wasted},
                {"tier_useful_cycles", useful}};

    if (m.rootsCompleted == 0 || visits == 0)
        r.failure = "no root completed";
    else if (m.rootsCompleted > m.rootsStarted)
        r.failure = "roots completed exceed roots started";
    else if (m.rootsFailed + m.rootsDegraded > m.rootsCompleted)
        r.failure = "failed + degraded roots exceed roots completed";
}

// ---------------------------------------------------------------------
// graph_fanout: front -> x4 mid -> x4 leaf, 21 visits per root.
// ---------------------------------------------------------------------

class GraphFanout : public Workload
{
  public:
    static constexpr double kRootsPerSec = 20e3;
    static constexpr double kMeasureSeconds = 0.025;

    size_t slots() const override { return 64; }

    OpResult runOp(size_t, std::uint64_t seed) const override
    {
        OpResult r;
        GraphMetrics m;
        {
            ServiceGraph g = build(seed);
            Tracer::Scope span("microsim.graph.run");
            m = g.run(kMeasureSeconds, /*warmupSeconds=*/0);
        }
        finishGraphOp(m, r);
        return r;
    }

    void replayLayers(std::map<std::string, double> &out) const override
    {
        replayEventQueue(/*timerChurn=*/false, /*seed=*/0xfa17, out);
    }

  private:
    static ServiceGraph build(std::uint64_t seed)
    {
        Tracer::Scope span("microsim.spec.build");
        ServiceGraph g(seed);
        g.addService(hostTier("front", 4, kRootsPerSec, 20e3, seed));
        g.addService(hostTier("mid", 8, 0, 10e3, seed + 1));
        g.addService(hostTier("leaf", 16, 0, 4e3, seed + 2));
        for (auto [caller, callee] : {std::pair{"front", "mid"},
                                      std::pair{"mid", "leaf"}}) {
            EdgeConfig e;
            e.caller = caller;
            e.callee = callee;
            e.fanout = 4;
            e.style = CallStyle::Sync;
            e.latencyCycles = 10e3;
            e.latencyJitterCycles = 4e3;
            g.addEdge(e);
        }
        g.validate();
        return g;
    }
};

// ---------------------------------------------------------------------
// graph_resilient: web -> ads -> cache, resilient sync edges, ads
// offloads to a shared hedged 4-replica p2c tier with one late replica.
// ---------------------------------------------------------------------

class GraphResilient : public Workload
{
  public:
    static constexpr double kRootsPerSec = 10e3;
    static constexpr double kMeasureSeconds = 0.15;
    /** The ads->cache latency spike, inside every op's window. */
    static constexpr sim::Tick kSpikeBegin = 60'000'000;
    static constexpr sim::Tick kSpikeEnd = 90'000'000;

    size_t slots() const override { return 64; }

    OpResult runOp(size_t, std::uint64_t seed) const override
    {
        OpResult r;
        GraphMetrics m;
        {
            ServiceGraph g = build(seed);
            Tracer::Scope span("microsim.graph.run");
            m = g.run(kMeasureSeconds, /*warmupSeconds=*/0);
        }
        finishGraphOp(m, r);
        return r;
    }

    void replayLayers(std::map<std::string, double> &out) const override
    {
        replayEventQueue(/*timerChurn=*/true, /*seed=*/0x7e51, out);

        OffloadStream stream; // ads' kernel stream into the shared tier
        stream.meanGapTicks = 1e9 / kRootsPerSec;
        stream.minBytes = kMinKernelBytes;
        stream.maxBytes = kMaxKernelBytes;
        stream.cyclesPerByte = kCyclesPerByte;
        stream.seed = 0x0ff1;
        replayTier(device(), tier(1), stream, out);
    }

  private:
    static constexpr double kMinKernelBytes = 1024;
    static constexpr double kMaxKernelBytes = 8192;
    static constexpr double kCyclesPerByte = 2.0;

    static microsim::AcceleratorConfig device()
    {
        microsim::AcceleratorConfig d;
        d.speedupFactor = 4;
        d.fixedLatencyCycles = 2000;
        d.latencyCyclesPerByte = 0.5;
        d.channels = 1;
        return d;
    }

    static microsim::TierConfig tier(std::uint64_t seed)
    {
        microsim::TierConfig t;
        t.replicas = 4;
        t.policy = microsim::DispatchPolicy::PowerOfTwoChoices;
        t.hedge.enabled = true;
        t.hedge.delayCycles = 15e3;
        t.seed = seed;
        // The last replica answers a quarter of its offloads 30k cycles
        // late, so hedges fire and race on the slow tail.
        auto late = std::make_shared<faults::FaultPlan>();
        late->seed = seed ^ 0x1a7eULL;
        late->lateProbability = 0.25;
        late->lateDelayCycles = 30e3;
        t.replicaFaultPlans.resize(t.replicas);
        t.replicaFaultPlans.back() = std::move(late);
        return t;
    }

    static EdgeConfig resilientEdge(const char *caller, const char *callee,
                                    double timeout,
                                    std::shared_ptr<faults::EdgeFaultPlan>
                                        plan)
    {
        EdgeConfig e;
        e.caller = caller;
        e.callee = callee;
        e.style = CallStyle::Sync;
        e.latencyCycles = 10e3;
        e.latencyJitterCycles = 2e3;
        e.rpcTimeoutCycles = timeout;
        e.maxAttempts = 3;
        e.retryBudget.cap = 20;
        e.retryBudget.ratio = 0.1;
        e.breaker.enabled = true;
        e.breaker.openThreshold = 0.5;
        e.breaker.window = 32;
        e.breaker.minSamples = 8;
        e.breaker.probeAfterCycles = 2e6;
        e.budgetSplit = microsim::BudgetSplit::ReserveForRetry;
        e.faultPlan = std::move(plan);
        return e;
    }

    static ServiceGraph build(std::uint64_t seed)
    {
        std::shared_ptr<faults::EdgeFaultPlan> frontPlan, backPlan;
        {
            Tracer::Scope span("faults.plan_build");
            frontPlan = std::make_shared<faults::EdgeFaultPlan>();
            frontPlan->seed = seed ^ 0xf0ULL;
            frontPlan->dropProbability = 0.01;
            frontPlan->validate();
            backPlan = std::make_shared<faults::EdgeFaultPlan>();
            backPlan->seed = seed ^ 0xbaULL;
            backPlan->dropProbability = 0.01;
            backPlan->spikeProbability = 1.0;
            backPlan->spikeLatencyCycles = 250e3;
            backPlan->spikeWindows = {{kSpikeBegin, kSpikeEnd}};
            backPlan->validate();
        }

        Tracer::Scope span("microsim.spec.build");
        microsim::ServiceConfig ads;
        ads.cores = 2;
        ads.threads = 2;
        ads.design = model::ThreadingDesign::AsyncSameThread;
        ads.strategy = model::Strategy::Remote;
        ads.clockGHz = kClockGHz;
        ads.accelerated = true;
        ads.driverWaitsForAck = false;
        ads.offloadSetupCycles = 500;
        ads.retry.timeoutCycles = 60e3;
        ads.retry.maxAttempts = 2;
        ads.retry.backoffBaseCycles = 1000;
        ads.retry.hostFallback = true;
        microsim::WorkloadSpec work;
        work.nonKernelCyclesMean = 20e3;
        work.nonKernelCv = 0.3;
        work.kernelsPerRequest = 1;
        work.granularity = std::make_shared<const BucketDist>(
            std::vector<DistBucket>{{kMinKernelBytes, kMaxKernelBytes, 1.0}});
        work.cyclesPerByte = kCyclesPerByte;

        ServiceGraph g(seed);
        g.addSharedTier("offload", device(), tier(seed));
        g.addService(hostTier("web", 2, kRootsPerSec, 10e3, seed));
        g.addService(ServiceSpec("ads")
                         .service(ads)
                         .accelerator(device())
                         .workload(work)
                         .seed(seed + 1)
                         .sharedTier("offload"));
        g.addService(hostTier("cache", 2, 0, 20e3, seed + 2));
        g.addEdge(resilientEdge("web", "ads", 400e3, std::move(frontPlan)));
        g.addEdge(resilientEdge("ads", "cache", 150e3, std::move(backPlan)));
        g.rootDeadline(1.5e6);
        g.validate();
        return g;
    }
};

// ---------------------------------------------------------------------
// paper_pipeline: profile a service, run a Table-6 A/B, calibrate the
// kernels, project the fleet. No graph.
// ---------------------------------------------------------------------

class PaperPipeline : public Workload
{
  public:
    static constexpr size_t kTraces = 2000;
    static constexpr size_t kKernelBytes = 8 * 1024;
    /**
     * Recovered shares must land within kShareTolerance points of the
     * encoded profile at kToleranceTraces traces (the profiling
     * pipeline tests' acceptance), widened by sqrt(kToleranceTraces /
     * kTraces) for this op's smaller sample: the same number of
     * standard errors.
     */
    static constexpr double kShareTolerance = 2.5;
    static constexpr size_t kToleranceTraces = 80000;

    PaperPipeline()
        : services_(workload::characterizedServices()),
          cases_(workload::allCaseStudies())
    {
        // A short simulated window per case study, sized so each arm
        // completes at least a few dozen requests: remote inference
        // issues ten offloads per second, the other two ~1e5.
        const double windows[] = {0.02, 0.02, 4.0};
        for (size_t i = 0; i < cases_.size(); ++i) {
            cases_[i].experiment.measureSeconds = windows[i];
            cases_[i].experiment.warmupSeconds = windows[i] / 10;
        }

        Rng rng(0x6b65726e);
        const std::string words[] = {"request ", "feature ", "ranking ",
                                     "session ", "vector ", "cache "};
        while (text_.size() < kKernelBytes) {
            const std::string &w = words[rng.below(6)];
            text_.insert(text_.end(), w.begin(), w.end());
        }
        text_.resize(kKernelBytes);
        noise_.resize(kKernelBytes);
        for (std::uint8_t &b : noise_)
            b = static_cast<std::uint8_t>(rng.next());
        for (std::uint8_t &b : key_)
            b = static_cast<std::uint8_t>(rng.next());
        for (std::uint8_t &b : iv_)
            b = static_cast<std::uint8_t>(rng.next());
        message_ = kernels::makeStoryMessage(kKernelBytes, 0x5e7de);

        for (workload::ServiceId id : services_) {
            model::FleetService svc;
            svc.name = workload::toString(id);
            svc.servers = 10000;
            svc.params = cases_[0].publishedParams;
            svc.design = cases_[0].design;
            fleet_.push_back(std::move(svc));
        }
    }

    size_t slots() const override { return 42; }

    OpResult runOp(size_t slot, std::uint64_t seed) const override
    {
        OpResult r;
        std::uint64_t h = 0xcbf29ce484222325ULL;
        const size_t svc = slot % services_.size();
        const workload::CaseStudy &cs = cases_[slot % cases_.size()];
        const workload::ServiceProfile &profile =
            workload::profile(services_[svc]);

        // 1. Profiling: sample, tag, aggregate, break down.
        std::vector<profiling::CallTrace> traces;
        {
            Tracer::Scope span("profiling.sample");
            profiling::TraceSampler sampler(profile, workload::CpuGen::GenC,
                                            seed);
            traces = sampler.sampleMany(kTraces);
        }
        std::map<workload::LeafCategory, double> leaf;
        std::map<workload::Functionality, double> func;
        {
            Tracer::Scope span("profiling.aggregate");
            profiling::Aggregator agg;
            agg.addAll(traces);
            leaf = agg.leafBreakdown();
            func = agg.functionalityBreakdown();
        }
        checkShares(leaf, profile.leafShare, "leaf", r);
        checkShares(func, profile.functionalityShare, "functionality", r);

        // 2. One Table-6 A/B over a short window.
        microsim::AbExperiment exp = cs.experiment;
        exp.seed = seed;
        microsim::AbResult ab;
        {
            Tracer::Scope span("microsim.ab");
            ab = microsim::runAbTest(exp);
        }
        double requests = static_cast<double>(ab.baseline.requestsCompleted +
                                              ab.treatment.requestsCompleted);
        if (ab.baseline.requestsCompleted == 0 ||
            ab.treatment.requestsCompleted == 0)
            fail(r, "A/B arm completed no request");

        // 3. Cb-calibration kernels on fixed buffers, each round-tripped.
        h = kernelsRoundTrip(h, r);

        // 4. Model: the case study's estimate, the A/B-derived estimate,
        // and the fleet projection with this service accelerated.
        {
            Tracer::Scope span("model.project");
            model::Projection est =
                model::Accelerometer(cs.publishedParams).project(cs.design);
            model::Params derived = microsim::deriveModelParams(exp, ab);
            double derivedSpeedup =
                model::Accelerometer(derived).speedup(cs.design);
            std::vector<model::FleetService> fleet = fleet_;
            fleet[svc].params = derived;
            fleet[svc].design = cs.design;
            model::FleetProjection proj = model::projectFleet(fleet);
            for (double v : {est.speedup, est.latencyReduction,
                             derivedSpeedup, proj.fleetSpeedup,
                             proj.serversFreed})
                h = fnvDouble(v, h);
            if (!(std::isfinite(derivedSpeedup) && derivedSpeedup > 0))
                fail(r, "derived speedup is not a positive number");
        }

        {
            Tracer::Scope span("stats.report");
            for (const auto &[k, v] : leaf)
                h = fnvDouble(v, h);
            for (const auto &[k, v] : func)
                h = fnvDouble(v, h);
            h = fnv1a(ab.baseline.summaryJson(), h);
            h = fnv1a(ab.treatment.summaryJson(), h);
        }
        r.digest = h;
        r.items = static_cast<std::uint64_t>(kTraces) +
            static_cast<std::uint64_t>(requests);
        r.counts = {{"traces", static_cast<double>(kTraces)},
                    {"ab_requests", requests},
                    {"kernel_bytes", static_cast<double>(kKernelBytes)}};
        return r;
    }

  private:
    std::vector<workload::ServiceId> services_;
    std::vector<workload::CaseStudy> cases_;
    std::vector<model::FleetService> fleet_;
    std::vector<std::uint8_t> text_;  //!< compressible LZ / serde input
    std::vector<std::uint8_t> noise_; //!< SHA-256 / AES input
    std::array<std::uint8_t, kernels::Aes128::kKeySize> key_{};
    std::array<std::uint8_t, kernels::Aes128::kBlockSize> iv_{};
    kernels::SerdeMessage message_;

    static void fail(OpResult &r, const std::string &why)
    {
        if (r.failure.empty())
            r.failure = why;
    }

    template <typename Category>
    static void checkShares(const std::map<Category, double> &got,
                            const workload::ShareMap<Category> &want,
                            const char *what, OpResult &r)
    {
        const double tolerance = kShareTolerance *
            std::sqrt(static_cast<double>(kToleranceTraces) / kTraces);
        double sum = 0;
        for (const auto &[c, v] : got)
            sum += v;
        if (std::abs(sum - 100.0) > 1e-6)
            fail(r, std::string(what) + " shares do not sum to 100");
        for (const auto &[c, expected] : want) {
            auto it = got.find(c);
            double share = it == got.end() ? 0.0 : it->second;
            if (std::abs(share - expected) > tolerance)
                fail(r, std::string(what) + " share of " + toString(c) +
                            " off its profile by more than " +
                            std::to_string(tolerance) + " points");
        }
    }

    std::uint64_t kernelsRoundTrip(std::uint64_t h, OpResult &r) const
    {
        {
            Tracer::Scope span("kernels.lz");
            std::vector<std::uint8_t> frame = kernels::lzCompress(text_);
            if (kernels::lzDecompress(frame) != text_)
                fail(r, "LZ round trip differs");
            h = fnv1a(frame.data(), frame.size(), h);
        }
        {
            Tracer::Scope span("kernels.sha256");
            auto known = kernels::Sha256::digest(std::string("abc"));
            if (kernels::Sha256::hex(known) !=
                "ba7816bf8f01cfea414140de5dae2223"
                "b00361a396177a9cb410ff61f20015ad")
                fail(r, "SHA-256 known answer differs");
            auto d = kernels::Sha256::digest(noise_);
            h = fnv1a(d.data(), d.size(), h);
        }
        {
            Tracer::Scope span("kernels.aes");
            kernels::Aes128 aes(key_);
            std::vector<std::uint8_t> sealed = aes.ctr(noise_, iv_);
            if (aes.ctr(sealed, iv_) != noise_)
                fail(r, "AES-CTR round trip differs");
            h = fnv1a(sealed.data(), sealed.size(), h);
        }
        {
            Tracer::Scope span("kernels.serde");
            std::vector<std::uint8_t> wire = kernels::serialize(message_);
            if (!(kernels::deserialize(wire) == message_))
                fail(r, "serde round trip differs");
            h = fnv1a(wire.data(), wire.size(), h);
        }
        return h;
    }
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "graph_fanout", "graph_resilient", "paper_pipeline"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "graph_fanout")
        return std::make_unique<GraphFanout>();
    if (name == "graph_resilient")
        return std::make_unique<GraphResilient>();
    if (name == "paper_pipeline")
        return std::make_unique<PaperPipeline>();
    throw std::invalid_argument("perfbench: unknown workload '" + name +
                                "'");
}

} // namespace perfbench
