/**
 * @file
 * Failure-rate circuit breaker shared by every resilient call site.
 *
 * One state machine serves both the intra-service offload breaker
 * (ServiceSim: open = kernels revert to host execution) and the
 * per-edge RPC breaker (ServiceGraph: open = callers short-circuit to
 * degraded responses). The breaker owns only the decision state —
 * sliding outcome window, failure count, Closed/Open/HalfOpen and the
 * open tick — and reports each transition to its caller, which keeps
 * its own counters (gated on its measurement window) and warnings.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/config.hh"
#include "sim/event_queue.hh"

namespace accel::microsim {

/**
 * Failure-rate circuit breaker. While closed, outcomes feed a sliding
 * window; when the observed failure fraction crosses openThreshold
 * the breaker opens. After probeAfterCycles one probe call is let
 * through (half-open): success closes the breaker, failure re-opens
 * it. Callers require a deadline — timeouts are the failure signal.
 */
struct BreakerConfig
{
    bool enabled = false;
    std::uint32_t window = 32;     //!< sliding outcome window size
    std::uint32_t minSamples = 8;  //!< samples before evaluating
    double openThreshold = 0.5;    //!< failure fraction that opens
    double probeAfterCycles = 1e6; //!< open -> probe delay (sim cycles)

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/**
 * Parse the `<prefix>breaker_*` keys of @p section (prefix "" for a
 * service, `edge_<i>_` for an edge). Presence of
 * breaker_open_threshold enables the breaker; breaker_window,
 * breaker_min_samples and breaker_probe_after are read only then, so
 * without it they are left for the section's unknown-key rejection.
 * @throws FatalError naming the key and section on a malformed value.
 */
BreakerConfig breakerFromConfig(const Config &cfg,
                                const std::string &section,
                                const std::string &prefix);

/** The BreakerConfig state machine. A disabled breaker always passes. */
class Breaker
{
  public:
    enum class State { Closed, Open, HalfOpen };

    /** What gate() decided for one call. */
    enum class Admit
    {
        Pass,   //!< closed: the call goes through
        Probe,  //!< open -> half-open: this call is the probe
        Reject, //!< open (or a probe in flight): skip the call
    };

    /** The state change one record() caused. */
    enum class Transition
    {
        None,
        Opened,   //!< the window crossed the threshold
        Closed,   //!< the probe succeeded; the window starts empty
        Reopened, //!< the probe failed; the probe clock restarts
    };

    explicit Breaker(const BreakerConfig &cfg);

    /** Admit or reject a call issued at @p now. */
    Admit gate(sim::Tick now);

    /**
     * Feed one outcome. @p probe marks the outcome of the call gate()
     * admitted as Probe. Non-probe outcomes arriving while Open or
     * HalfOpen are stragglers from before the breaker opened and are
     * ignored.
     */
    Transition record(bool success, bool probe, sim::Tick now);

    State state() const { return state_; }

  private:
    void clearWindow();

    BreakerConfig cfg_;
    State state_ = State::Closed;
    /** Ring of the last cfg_.window outcomes (true = failure). */
    std::vector<bool> window_;
    std::uint32_t head_ = 0;  //!< index of the oldest outcome
    std::uint32_t count_ = 0; //!< outcomes in the ring
    std::uint32_t failures_ = 0;
    sim::Tick openedAt_ = 0;
};

} // namespace accel::microsim
