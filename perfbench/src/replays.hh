/**
 * @file
 * Fixed-shape layer replays for the traced run: a workload's
 * event-core mix driven through sim::EventQueue alone, and a
 * workload's offload stream driven through microsim::AcceleratorTier
 * alone. Each reports host cost and allocations per unit of work.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "microsim/tier.hh"

namespace perfbench {

/**
 * Replay 1,024 concurrent chains of 200k steps in all, with exponential
 * gaps (mean 5k ticks), through the public EventQueue API, and write
 * sim.ns_per_event and sim.allocs_per_event into @p out.
 *
 * @param timerChurn false: plain schedule/run chains (call, hop and
 *        completion events). true: every step arms a cancellable
 *        20k-tick timeout that a racing completion mostly cancels
 *        (attempt and hedge timers).
 */
void replayEventQueue(bool timerChurn, std::uint64_t seed,
                      std::map<std::string, double> &out);

/** One open-loop offload stream into a tier. */
struct OffloadStream
{
    double meanGapTicks = 0;           //!< exponential inter-arrival
    double minBytes = 0;               //!< uniform kernel size range
    double maxBytes = 0;
    double cyclesPerByte = 0;          //!< host-equivalent work per byte
    std::uint64_t seed = 1;
};

/**
 * Replay 20k offloads of @p stream through a fresh AcceleratorTier and
 * write microsim.tier.ns_per_offload and
 * microsim.tier.allocs_per_offload into @p out.
 */
void replayTier(const accel::microsim::AcceleratorConfig &device,
                const accel::microsim::TierConfig &tier,
                const OffloadStream &stream,
                std::map<std::string, double> &out);

} // namespace perfbench
