/**
 * @file
 * perfbench: the repository benchmark. Runs one workload as back-to-back
 * ops on one thread for a fixed host time and prints, as its last line,
 * one JSON object with the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1). See perfbench/README.md.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --reference FILE [--trace-out FILE]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>

#include "probe.hh"
#include "util/thread_pool.hh"
#include "workload/profiles.hh"
#include "workload/request_factory.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** Set-up is repeated this many times; setup_s takes the median. */
constexpr int kSetupRounds = 11;

/** The warm-up op every set-up round runs and checks against the
 *  stored reference digest: slot 0 under this fixed seed. */
constexpr std::uint64_t kReferenceSeed = 20200316;

/** The timed phase ends after this many times --seconds of wall time,
 *  or kWallCapS, even if the thread has not had --seconds of CPU. */
constexpr double kWallCapFactor = 3.0;
constexpr double kWallCapS = 150.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE [--trace-out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--reference") {
            a.reference = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload || a.reference.empty())
        usage("--workload and --reference are required");
    return a;
}

/** SplitMix64: the op seeds derived from the workload seed. */
std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

/**
 * CPU time of the calling thread. Every host time the benchmark reports
 * is read on this clock: an op runs on one thread and does no waiting,
 * so wall time exceeds it only by time the shared host gave to other
 * tenants, which is the run-to-run noise the benchmark must not report.
 */
double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

int
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return -1;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Nearest-rank percentile of an unsorted sample. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::max<size_t>(rank, 1) - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** The workload's entry of the reference file ({"name": "hex", ...}). */
std::string
referenceDigest(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::string key = "\"" + workload + "\"";
    size_t at = text.find(key);
    if (at == std::string::npos)
        return "";
    size_t open = text.find('"', text.find(':', at + key.size()));
    size_t close = text.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos)
        return "";
    return text.substr(open + 1, close - open - 1);
}

struct OpRecord
{
    double ms = 0;
    std::uint64_t items = 0;
    std::uint64_t allocs = 0;
    bool traced = false;
};

/** How a per-layer metric is formed from spans and exact counts. */
enum class Form
{
    SpanNsPer,      //!< span host ns / traced count
    SpanAllocsPer,  //!< span allocations / traced count
    SpanUsPerCall,  //!< mean span host time, in microseconds
    SpanMbPerS,     //!< traced count (bytes) / span host time
    CountRatio,     //!< exact count / exact count, first op cycle
    Replay,         //!< figure from the layer replay
    TraceOverhead,  //!< traced vs untraced op_ms_p50, in percent
};

struct LayerMetric
{
    const char *name;
    const char *unit;
    Form form;
    const char *span = "";
    const char *num = "";
    const char *den = "";
};

/**
 * Every per-layer metric, emitted on every workload. A metric reads 0
 * on a workload that never calls its layer (see README).
 */
const LayerMetric kLayerMetrics[] = {
    {"microsim.graph.run_ns_per_visit", "ns", Form::SpanNsPer,
     "microsim.graph.run", "", "visits"},
    {"microsim.graph.run_allocs_per_visit", "count", Form::SpanAllocsPer,
     "microsim.graph.run", "", "visits"},
    {"microsim.spec.build_us", "us", Form::SpanUsPerCall,
     "microsim.spec.build"},
    {"faults.plan_build_us", "us", Form::SpanUsPerCall,
     "faults.plan_build"},
    {"stats.report_us", "us", Form::SpanUsPerCall, "stats.report"},
    {"microsim.graph.visits_per_root", "count", Form::CountRatio, "",
     "visits", "roots"},
    {"microsim.graph.attempts_per_call", "count", Form::CountRatio, "",
     "attempts", "calls"},
    {"microsim.graph.useful_attempt_ratio", "ratio", Form::CountRatio, "",
     "calls_completed", "attempts"},
    {"microsim.graph.timeouts_per_attempt", "ratio", Form::CountRatio, "",
     "attempt_timeouts", "attempts"},
    {"microsim.graph.degraded_root_ratio", "ratio", Form::CountRatio, "",
     "degraded_roots", "roots"},
    {"microsim.tier.offloads_per_visit", "count", Form::CountRatio, "",
     "offloads", "visits"},
    {"microsim.tier.hedges_per_offload", "count", Form::CountRatio, "",
     "hedges", "offloads"},
    {"microsim.tier.duplicate_work_ratio", "ratio", Form::CountRatio, "",
     "tier_wasted_cycles", "tier_useful_cycles"},
    {"sim.ns_per_event", "ns", Form::Replay},
    {"sim.allocs_per_event", "count", Form::Replay},
    {"microsim.tier.ns_per_offload", "ns", Form::Replay},
    {"microsim.tier.allocs_per_offload", "count", Form::Replay},
    {"profiling.sample_ns_per_trace", "ns", Form::SpanNsPer,
     "profiling.sample", "", "traces"},
    {"profiling.aggregate_ns_per_trace", "ns", Form::SpanNsPer,
     "profiling.aggregate", "", "traces"},
    {"profiling.allocs_per_trace", "count", Form::SpanAllocsPer,
     "profiling.aggregate", "", "traces"},
    {"microsim.ab.ns_per_request", "ns", Form::SpanNsPer, "microsim.ab",
     "", "ab_requests"},
    {"microsim.ab.allocs_per_request", "count", Form::SpanAllocsPer,
     "microsim.ab", "", "ab_requests"},
    {"kernels.lz_mb_per_s", "MB/s", Form::SpanMbPerS, "kernels.lz",
     "kernel_bytes"},
    {"kernels.sha256_mb_per_s", "MB/s", Form::SpanMbPerS, "kernels.sha256",
     "kernel_bytes"},
    {"kernels.aes_mb_per_s", "MB/s", Form::SpanMbPerS, "kernels.aes",
     "kernel_bytes"},
    {"kernels.serde_mb_per_s", "MB/s", Form::SpanMbPerS, "kernels.serde",
     "kernel_bytes"},
    {"model.project_us", "us", Form::SpanUsPerCall, "model.project"},
    {"bench.trace_overhead_pct", "%", Form::TraceOverhead},
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // One thread: the runner pool runs its loops inline.
    accel::ThreadPool::setWorkers(1);
    Tracer &tracer = Tracer::instance();

    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n";

    // ---- set-up: static tables, then repeated shape + warm-up rounds
    std::unique_ptr<Workload> wl;
    for (accel::workload::ServiceId id :
         accel::workload::characterizedServices())
        (void)accel::workload::profile(id);
    (void)accel::workload::allCaseStudies();
    // CPU time since the process started: loading, static
    // initialisation, argument parsing and the static tables.
    const double staticS = threadCpuSeconds();

    std::vector<double> rounds;
    std::uint64_t warmDigest = 0;
    std::string warmFailure;
    for (int r = 0; r < kSetupRounds; ++r) {
        double t0 = threadCpuSeconds();
        try {
            wl = makeWorkload(args.workload);
        } catch (const std::invalid_argument &e) {
            usage(e.what());
        }
        OpResult warm = wl->runOp(0, kReferenceSeed);
        rounds.push_back(threadCpuSeconds() - t0);
        if (r > 0 && warm.digest != warmDigest)
            warmFailure = "warm-up op is not deterministic";
        warmDigest = warm.digest;
        if (!warm.failure.empty())
            warmFailure = "warm-up op failed: " + warm.failure;
    }
    const double setupS = staticS + median(rounds);
    std::cout << "setup: static tables " << staticS << " s, rounds";
    for (double r : rounds)
        std::cout << " " << r;
    std::cout << " s, setup_s " << setupS << " s\n";

    const std::string want = referenceDigest(args.reference, args.workload);
    const bool referenceOk = want == hex(warmDigest);
    std::cout << "reference digest: got " << hex(warmDigest) << ", stored "
              << (want.empty() ? "(none)" : want)
              << (referenceOk ? " -> ok" : " -> MISMATCH") << "\n";
    if (!referenceOk)
        std::cerr << "perfbench: workload " << args.workload
                  << ": simulated output differs from the stored "
                     "reference digest; every op counts as failed\n";

    // ---- timed phase: back-to-back ops over fixed seeded slots
    const size_t slots = wl->slots();
    std::vector<std::uint64_t> seeds(slots);
    for (size_t k = 0; k < slots; ++k)
        seeds[k] = splitmix(args.seed * 1000003ULL + k);
    std::vector<std::uint64_t> slotDigest(slots, 0);
    std::vector<OpRecord> ops;
    ops.reserve(1 << 16);
    Counts cycleCounts;   // exact counts over the first op of each slot
    Counts tracedCounts;  // counts over traced ops (span denominators)
    std::uint64_t cycleAllocs = 0, cycleItems = 0, failed = 0;
    std::string firstFailure = warmFailure;
    std::map<std::string, double> replayed;

    const int threadsBefore = threadCount();
    // The phase lasts --seconds of the thread's CPU time; the wall-clock
    // cap bounds the run on a host that starves the process.
    const double cpu0 = clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double threadCpu0 = threadCpuSeconds();
    const std::int64_t wallCap =
        nowNs() + static_cast<std::int64_t>(
                      std::min(kWallCapFactor * args.seconds, kWallCapS) *
                      1e9);
    for (std::uint64_t i = 0;
         i == 0 || (threadCpuSeconds() - threadCpu0 < args.seconds &&
                    nowNs() < wallCap);
         ++i) {
        const size_t slot = i % slots;
        // Whole slot cycles alternate, so traced and untraced ops run
        // the same scenarios and their p50s compare.
        const bool traced = args.trace && (i / slots) % 2 == 1;
        tracer.setEnabled(traced);
        tracer.setOp(i);
        OpRecord rec;
        rec.traced = traced;
        OpResult res;
        double t0 = threadCpuSeconds();
        {
            AllocScope allocs;
            Tracer::Scope span("bench.op");
            res = wl->runOp(slot, seeds[slot]);
            rec.allocs = allocs.count();
        }
        rec.ms = (threadCpuSeconds() - t0) * 1e3;
        rec.items = res.items;
        tracer.setEnabled(false);

        if (i < slots) {
            slotDigest[slot] = res.digest;
            cycleAllocs += rec.allocs;
            cycleItems += res.items;
            for (const auto &[k, v] : res.counts)
                cycleCounts[k] += v;
        } else if (res.digest != slotDigest[slot] && res.failure.empty()) {
            res.failure = "digest of a repeated op changed";
        }
        if (traced) {
            for (const auto &[k, v] : res.counts)
                tracedCounts[k] += v;
        }
        if (!res.failure.empty()) {
            ++failed;
            if (firstFailure.empty())
                firstFailure = "op " + std::to_string(i) + ": " + res.failure;
        }
        ops.push_back(rec);
    }
    const double cpuS = clockSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    const int threadsAfter = threadCount();
    if (args.trace) {
        tracer.setEnabled(true);
        wl->replayLayers(replayed);
        tracer.setEnabled(false);
    }

    // ---- results
    const std::uint64_t attempted = ops.size();
    if (!referenceOk || !warmFailure.empty())
        failed = attempted;
    std::uint64_t runDigest = 0xcbf29ce484222325ULL;
    for (std::uint64_t d : slotDigest)
        runDigest = fnv1a(&d, sizeof d, runDigest);
    const bool oneThread = threadsBefore == 1 && threadsAfter == 1;
    const bool complete = attempted >= slots;
    bool correct = failed == 0 && oneThread && complete;

    std::vector<double> allMs, untracedMs, tracedMs, itemRates;
    double sumOpS = 0;
    for (const OpRecord &r : ops) {
        allMs.push_back(r.ms);
        (r.traced ? tracedMs : untracedMs).push_back(r.ms);
        itemRates.push_back(static_cast<double>(r.items) / (r.ms / 1e3));
        sumOpS += r.ms / 1e3;
    }
    const size_t beyondP90 =
        attempted - static_cast<size_t>(std::ceil(0.9 * attempted));
    std::cout << "ops: " << attempted << " attempted, " << failed
              << " failed, " << beyondP90 << " beyond p90, slots " << slots
              << "\n";
    std::cout << "threads in timed phase: " << threadsBefore << " -> "
              << threadsAfter << "; cpu_s " << cpuS << " vs op time "
              << sumOpS << " s\n";
    std::cout << "run digest: " << hex(runDigest) << "\n";
    std::cout << "counts:";
    for (const auto &[k, v] : cycleCounts)
        std::cout << " " << k << "=" << jsonNum(v);
    std::cout << " allocs=" << cycleAllocs << " items=" << cycleItems
              << "\n";
    if (!firstFailure.empty())
        std::cerr << "perfbench: " << args.workload
                  << ": first failed check: " << firstFailure << "\n";
    if (!oneThread)
        std::cerr << "perfbench: timed phase ran on more than one thread\n";
    if (!complete)
        std::cerr << "perfbench: fewer ops than op slots; raise --seconds\n";

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    if (!args.trace) {
        struct rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"setup_s", {setupS, "s"}},
            {"op_ms_p50", {percentile(allMs, 0.5), "ms"}},
            {"op_ms_p90", {percentile(allMs, 0.9), "ms"}},
            {"items_per_s", {median(itemRates), "1/s"}},
            {"cpu_s", {cpuS, "s"}},
            {"peak_rss_mb", {static_cast<double>(ru.ru_maxrss) / 1024.0,
                             "MB"}},
            {"allocs_per_item",
             {ratio(static_cast<double>(cycleAllocs),
                    static_cast<double>(cycleItems)),
              "count"}},
        };
    } else {
        const auto totals = tracer.totals();
        const SpanTotals none;
        for (const LayerMetric &lm : kLayerMetrics) {
            auto found = totals.find(lm.span);
            const SpanTotals &st = found == totals.end() ? none
                                                         : found->second;
            double v = 0;
            switch (lm.form) {
              case Form::SpanNsPer:
                v = ratio(st.totalNs, tracedCounts[lm.den]);
                break;
              case Form::SpanAllocsPer:
                v = ratio(static_cast<double>(st.allocs),
                          tracedCounts[lm.den]);
                break;
              case Form::SpanUsPerCall:
                v = ratio(st.totalNs / 1e3, static_cast<double>(st.count));
                break;
              case Form::SpanMbPerS:
                v = ratio(tracedCounts[lm.num] * 1e3, st.totalNs);
                break;
              case Form::CountRatio:
                v = ratio(cycleCounts[lm.num], cycleCounts[lm.den]);
                break;
              case Form::Replay:
                v = replayed.count(lm.name) ? replayed[lm.name] : 0.0;
                break;
              case Form::TraceOverhead:
                v = tracedMs.empty() || untracedMs.empty()
                    ? 0.0
                    : (percentile(tracedMs, 0.5) /
                           percentile(untracedMs, 0.5) -
                       1.0) * 100.0;
                break;
            }
            metrics.push_back({lm.name, {v, lm.unit}});
        }

        std::cout << "self time per layer (traced ops and replays):\n";
        std::printf("  %-26s %8s %12s %12s %8s\n", "span", "calls",
                    "total ms", "self ms", "allocs");
        for (const auto &[name, st] : totals)
            std::printf("  %-26s %8llu %12.3f %12.3f %8llu\n", name.c_str(),
                        static_cast<unsigned long long>(st.count),
                        st.totalNs / 1e6, st.selfNs / 1e6,
                        static_cast<unsigned long long>(st.allocs));
        std::fflush(stdout);
        if (!args.traceOut.empty()) {
            tracer.writeChromeTrace(args.traceOut);
            std::cout << "trace: " << tracer.spans().size()
                      << " spans written to " << args.traceOut << "\n";
        }
    }

    for (const auto &[name, vu] : metrics)
        std::cout << "metric " << name << " = " << jsonNum(vu.first) << " "
                  << vu.second << "\n";
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << "\"" << metrics[i].first
             << "\": {\"value\": " << jsonNum(metrics[i].second.first)
             << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
