/**
 * @file
 * Breaker: the one circuit-breaker state machine behind the offload
 * breaker (ServiceSim) and the per-edge breaker (ServiceGraph). These
 * tests pin each transition exactly, not just "it opened at least once".
 */

#include "microsim/breaker.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::microsim {
namespace {

using Admit = Breaker::Admit;
using State = Breaker::State;
using Transition = Breaker::Transition;

BreakerConfig
config(std::uint32_t window, std::uint32_t minSamples, double threshold,
       double probeAfter)
{
    BreakerConfig c;
    c.enabled = true;
    c.window = window;
    c.minSamples = minSamples;
    c.openThreshold = threshold;
    c.probeAfterCycles = probeAfter;
    return c;
}

/** Feed @p n outcomes of one kind at @p now; all must leave it closed. */
void
feed(Breaker &b, bool success, int n, sim::Tick now = 0)
{
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(b.record(success, /*probe=*/false, now), Transition::None);
}

/** Drive a fresh 4-wide, threshold-1/2 breaker open at tick 100. */
Breaker
openedAt100(double probeAfter = 50)
{
    Breaker b(config(4, 4, 0.5, probeAfter));
    feed(b, true, 2);
    EXPECT_EQ(b.record(false, false, 90), Transition::None);
    EXPECT_EQ(b.record(false, false, 100), Transition::Opened);
    EXPECT_EQ(b.state(), State::Open);
    return b;
}

TEST(Breaker, DisabledBreakerAlwaysPassesAndNeverRecords)
{
    Breaker b{BreakerConfig{}};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(b.gate(static_cast<sim::Tick>(i)), Admit::Pass);
        EXPECT_EQ(b.record(false, false, static_cast<sim::Tick>(i)),
                  Transition::None);
    }
    EXPECT_EQ(b.state(), State::Closed);
}

TEST(Breaker, DoesNotOpenBelowMinSamples)
{
    // Four straight failures are a 100% failure rate, but the window
    // holds fewer than minSamples = 5 outcomes until the fifth.
    Breaker b(config(8, 5, 0.5, 10));
    feed(b, false, 4);
    EXPECT_EQ(b.state(), State::Closed);
    EXPECT_EQ(b.gate(0), Admit::Pass);
    EXPECT_EQ(b.record(false, false, 7), Transition::Opened);
    EXPECT_EQ(b.gate(16), Admit::Reject);
    EXPECT_EQ(b.gate(17), Admit::Probe); // probeAfter 10 from tick 7
}

TEST(Breaker, OldestOutcomeIsEvictedAtWindow)
{
    // window 4, threshold 0.6. F F S S fills the ring at 2/4 failures.
    Breaker b(config(4, 4, 0.6, 10));
    feed(b, false, 2);
    feed(b, true, 2);
    // F evicts the oldest F: still 2/4, closed. Without the eviction
    // the window would read 3/5 = 0.6 and open here.
    EXPECT_EQ(b.record(false, false, 1), Transition::None);
    // The next F evicts the second F: 2/4 again, closed.
    EXPECT_EQ(b.record(false, false, 2), Transition::None);
    // Now the ring is S S F F; one more F evicts an S: 3/4 opens.
    EXPECT_EQ(b.record(false, false, 3), Transition::Opened);
}

TEST(Breaker, EvictedSuccessesNoLongerDiluteFailures)
{
    // window 3, threshold 1 (every outcome in the window must fail).
    Breaker b(config(3, 3, 1.0, 10));
    feed(b, true, 3);
    feed(b, false, 2); // S F F: one success still in the window
    EXPECT_EQ(b.record(false, false, 4), Transition::Opened); // F F F
}

TEST(Breaker, ProbesBeginAtProbeAfterCycles)
{
    Breaker b = openedAt100(/*probeAfter=*/50);
    EXPECT_EQ(b.gate(100), Admit::Reject);
    EXPECT_EQ(b.gate(149), Admit::Reject);
    EXPECT_EQ(b.state(), State::Open);
    EXPECT_EQ(b.gate(150), Admit::Probe);
    EXPECT_EQ(b.state(), State::HalfOpen);
    // One probe at a time: everyone else is rejected while it flies.
    EXPECT_EQ(b.gate(151), Admit::Reject);
    EXPECT_EQ(b.gate(10000), Admit::Reject);
}

TEST(Breaker, FailedProbeReopensAndRestartsTheProbeClock)
{
    Breaker b = openedAt100(/*probeAfter=*/50);
    ASSERT_EQ(b.gate(150), Admit::Probe);
    EXPECT_EQ(b.record(false, /*probe=*/true, 170), Transition::Reopened);
    EXPECT_EQ(b.state(), State::Open);
    // The clock restarted at 170: the old deadline (150) no longer
    // admits a probe, the new one (220) does.
    EXPECT_EQ(b.gate(200), Admit::Reject);
    EXPECT_EQ(b.gate(219), Admit::Reject);
    EXPECT_EQ(b.gate(220), Admit::Probe);
}

TEST(Breaker, SuccessfulProbeClosesWithAnEmptyWindow)
{
    Breaker b = openedAt100(/*probeAfter=*/50);
    ASSERT_EQ(b.gate(150), Admit::Probe);
    EXPECT_EQ(b.record(true, /*probe=*/true, 160), Transition::Closed);
    EXPECT_EQ(b.state(), State::Closed);
    EXPECT_EQ(b.gate(161), Admit::Pass);
    // A cleared window needs minSamples = 4 fresh outcomes before it
    // can open again, even when all of them fail.
    feed(b, false, 3, 170);
    EXPECT_EQ(b.record(false, false, 180), Transition::Opened);
    EXPECT_EQ(b.gate(229), Admit::Reject);
    EXPECT_EQ(b.gate(230), Admit::Probe);
}

TEST(Breaker, StragglersWhileOpenOrHalfOpenAreIgnored)
{
    Breaker b = openedAt100(/*probeAfter=*/50);
    // Outcomes of calls issued before the breaker opened keep
    // arriving; none of them may move the state or the probe clock.
    feed(b, false, 10, 120);
    feed(b, true, 10, 130);
    EXPECT_EQ(b.state(), State::Open);
    ASSERT_EQ(b.gate(150), Admit::Probe);
    feed(b, true, 10, 155);
    feed(b, false, 10, 156);
    EXPECT_EQ(b.state(), State::HalfOpen);
    // Only the probe's own outcome decides.
    EXPECT_EQ(b.record(true, true, 157), Transition::Closed);
    // And the stragglers left nothing behind in the window: three
    // failures stay below minSamples = 4.
    feed(b, false, 3, 158);
    EXPECT_EQ(b.state(), State::Closed);
}

TEST(Breaker, ProbeOutcomeWithoutHalfOpenIsAProgrammingError)
{
    Breaker b(config(4, 4, 0.5, 10));
    EXPECT_THROW(b.record(true, /*probe=*/true, 0), PanicError);
}

TEST(BreakerConfig, ValidateNamesTheField)
{
    BreakerConfig c = config(4, 8, 0.5, 10);
    try {
        c.validate();
        FAIL() << "minSamples > window accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("minSamples"),
                  std::string::npos);
    }
    c = config(4, 4, 0.0, 10);
    EXPECT_THROW(c.validate(), FatalError);
    c = config(4, 4, 0.5, -1);
    EXPECT_THROW(c.validate(), FatalError);
}

} // namespace
} // namespace accel::microsim
