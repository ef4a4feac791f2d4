#include "replays.hh"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "probe.hh"
#include "sim/event_queue.hh"
#include "util/rng.hh"

namespace perfbench {

namespace {

using accel::Rng;
using accel::sim::EventQueue;
using accel::sim::Tick;
using accel::sim::TimerId;

/** Each replay runs this many times; the median is reported. */
constexpr int kReplayReps = 5;

constexpr std::uint32_t kChains = 1024;
constexpr std::uint64_t kSteps = 200000;
constexpr double kMeanGapTicks = 5000;
constexpr Tick kTimeoutTicks = 20000;
constexpr std::uint64_t kOffloads = 20000;

struct Cost
{
    double ns = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t units = 0;
};

/** Median per-unit time; allocations must repeat exactly. */
void
report(const std::vector<Cost> &reps, const char *nsKey,
       const char *allocKey, std::map<std::string, double> &out)
{
    std::vector<double> ns;
    for (const Cost &c : reps) {
        if (c.units == 0 || c.allocs != reps.front().allocs ||
            c.units != reps.front().units)
            throw std::runtime_error(std::string("perfbench: replay behind ") +
                                     nsKey +
                                     " is incomplete or not deterministic");
        ns.push_back(c.ns / static_cast<double>(c.units));
    }
    std::sort(ns.begin(), ns.end());
    out[nsKey] = ns[ns.size() / 2];
    out[allocKey] = static_cast<double>(reps.front().allocs) /
        static_cast<double>(reps.front().units);
}

/** Chains of steps through the public EventQueue API. */
class EventChains
{
  public:
    EventChains(bool timerChurn, std::uint64_t seed)
        : timerChurn_(timerChurn), rng_(seed)
    {
    }

    Cost run()
    {
        Tracer::Scope span("sim.replay");
        AllocScope allocs;
        std::int64_t t0 = nowNs();
        for (std::uint32_t c = 0; c < kChains; ++c)
            step();
        eq_.runAll();
        Cost cost;
        cost.ns = static_cast<double>(nowNs() - t0);
        cost.allocs = allocs.count();
        cost.units = eq_.processed();
        return cost;
    }

  private:
    bool timerChurn_;
    Rng rng_;
    EventQueue eq_;
    std::uint64_t issued_ = 0;

    Tick gap()
    {
        return 1 + static_cast<Tick>(rng_.exponential(kMeanGapTicks));
    }

    void step()
    {
        if (issued_++ >= kSteps)
            return;
        if (!timerChurn_) {
            eq_.scheduleIn(gap(), [this]() { step(); });
            return;
        }
        // The completion settles the step only if it beats the timer.
        TimerId timer =
            eq_.scheduleTimerIn(kTimeoutTicks, [this]() { step(); });
        eq_.scheduleIn(gap(), [this, timer]() {
            if (eq_.cancelTimer(timer))
                step();
        });
    }
};

} // namespace

void
replayEventQueue(bool timerChurn, std::uint64_t seed,
                 std::map<std::string, double> &out)
{
    std::vector<Cost> reps;
    for (int r = 0; r < kReplayReps; ++r)
        reps.push_back(EventChains(timerChurn, seed).run());
    report(reps, "sim.ns_per_event", "sim.allocs_per_event", out);
}

void
replayTier(const accel::microsim::AcceleratorConfig &device,
           const accel::microsim::TierConfig &tierConfig,
           const OffloadStream &stream, std::map<std::string, double> &out)
{
    std::vector<Cost> reps;
    for (int r = 0; r < kReplayReps; ++r) {
        Tracer::Scope span("microsim.tier.replay");
        AllocScope allocs;
        std::int64_t t0 = nowNs();
        EventQueue eq;
        accel::microsim::AcceleratorTier tier(eq, device, tierConfig);
        Rng rng(stream.seed);
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        // Arrivals chain: each one dispatches an offload and schedules
        // the next, so the stream never sits in the queue up front.
        std::function<void()> arrive = [&]() {
            double bytes = rng.uniform(stream.minBytes, stream.maxBytes);
            tier.offload(bytes * stream.cyclesPerByte, bytes,
                         [&completed]() { ++completed; });
            if (++issued < kOffloads)
                eq.scheduleIn(1 + static_cast<Tick>(rng.exponential(
                                      stream.meanGapTicks)),
                              [&arrive]() { arrive(); });
        };
        eq.schedule(0, [&arrive]() { arrive(); });
        eq.runAll();
        Cost cost;
        cost.ns = static_cast<double>(nowNs() - t0);
        cost.allocs = allocs.count();
        cost.units = completed == kOffloads ? issued : 0;
        reps.push_back(cost);
    }
    report(reps, "microsim.tier.ns_per_offload",
           "microsim.tier.allocs_per_offload", out);
}

} // namespace perfbench
