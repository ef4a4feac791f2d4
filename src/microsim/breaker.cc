#include "microsim/breaker.hh"

#include <cmath>
#include <string>

#include "util/logging.hh"

namespace accel::microsim {

void
BreakerConfig::validate() const
{
    require(window >= 1, "BreakerConfig.window must be >= 1");
    require(minSamples >= 1, "BreakerConfig.minSamples must be >= 1");
    require(minSamples <= window,
            "BreakerConfig.minSamples must be <= window");
    require(std::isfinite(openThreshold) && openThreshold > 0 &&
                openThreshold <= 1,
            "BreakerConfig.openThreshold must be in (0, 1]");
    require(std::isfinite(probeAfterCycles) && probeAfterCycles >= 0,
            "BreakerConfig.probeAfterCycles must be finite and >= 0");
}

BreakerConfig
breakerFromConfig(const Config &cfg, const std::string &section,
                  const std::string &prefix)
{
    BreakerConfig b;
    b.enabled =
        cfg.read(section, prefix + "breaker_open_threshold", b.openThreshold);
    if (b.enabled) {
        cfg.read(section, prefix + "breaker_window", b.window);
        cfg.read(section, prefix + "breaker_min_samples", b.minSamples);
        cfg.read(section, prefix + "breaker_probe_after",
                 b.probeAfterCycles);
    }
    return b;
}

Breaker::Breaker(const BreakerConfig &cfg) : cfg_(cfg)
{
    // A disabled breaker never records, so it never needs a window.
    if (cfg_.enabled)
        window_.assign(cfg_.window, false);
}

Breaker::Admit
Breaker::gate(sim::Tick now)
{
    switch (state_) {
      case State::Closed:
        return Admit::Pass;
      case State::Open:
        if (static_cast<double>(now - openedAt_) >=
            cfg_.probeAfterCycles) {
            state_ = State::HalfOpen;
            return Admit::Probe;
        }
        return Admit::Reject;
      case State::HalfOpen:
        // A probe is already in flight; everyone else is rejected.
        return Admit::Reject;
    }
    panic("Breaker::gate: unreachable state");
}

Breaker::Transition
Breaker::record(bool success, bool probe, sim::Tick now)
{
    if (!cfg_.enabled)
        return Transition::None;
    if (probe) {
        ensure(state_ == State::HalfOpen,
               "Breaker::record: probe outcome without half-open state");
        if (success) {
            state_ = State::Closed;
            clearWindow();
            return Transition::Closed;
        }
        state_ = State::Open;
        openedAt_ = now;
        return Transition::Reopened;
    }
    if (state_ != State::Closed)
        return Transition::None; // stragglers from before it opened

    // Until the ring first fills, head_ stays 0 and outcomes append;
    // after that each new outcome overwrites the oldest one.
    if (count_ < cfg_.window) {
        window_[count_++] = !success;
    } else {
        if (window_[head_])
            --failures_;
        window_[head_] = !success;
        head_ = head_ + 1 == cfg_.window ? 0 : head_ + 1;
    }
    if (!success)
        ++failures_;

    if (count_ >= cfg_.minSamples &&
        static_cast<double>(failures_) / static_cast<double>(count_) >=
            cfg_.openThreshold) {
        state_ = State::Open;
        openedAt_ = now;
        clearWindow();
        return Transition::Opened;
    }
    return Transition::None;
}

void
Breaker::clearWindow()
{
    head_ = 0;
    count_ = 0;
    failures_ = 0;
}

} // namespace accel::microsim
