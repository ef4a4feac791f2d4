/**
 * @file
 * The benchmark's workloads. Each is a scenario family defined here and
 * only here (not in the repository's shared bench fixtures), so a later
 * change cannot alter a workload by editing a shared file.
 *
 * One op builds a scenario from an op seed, runs it to completion on
 * the calling thread, checks its output and digests every simulated
 * statistic it produced.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Exact simulated counts of one op, keyed by name (summed over ops). */
using Counts = std::map<std::string, double>;

struct OpResult
{
    /** Deterministic work items the op performed (see README). */
    std::uint64_t items = 0;
    /** FNV-1a digest of every simulated statistic the op produced. */
    std::uint64_t digest = 0;
    /** First failed output check; empty when every check passed. */
    std::string failure;
    Counts counts;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Ops cycle through this many seeded op slots. */
    virtual size_t slots() const = 0;

    /** Run one op: slot picks the op's shape, seed its inputs. */
    virtual OpResult runOp(size_t slot, std::uint64_t seed) const = 0;

    /**
     * Traced run only: replay this workload's event-core and tier
     * traffic through the layers' public APIs, alone, and add the
     * per-layer figures (sim.*, microsim.tier.ns/allocs_per_offload).
     */
    virtual void replayLayers(std::map<std::string, double> &) const {}
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload's shapes: scenario templates, fixed kernel buffers,
 * case studies and the fleet. @throws std::invalid_argument on an
 * unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** FNV-1a over bytes, chained from @p h. */
std::uint64_t fnv1a(const void *data, size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), h);
}

} // namespace perfbench
