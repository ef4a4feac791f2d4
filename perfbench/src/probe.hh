/**
 * @file
 * Measurement probes of the benchmark binary: a per-thread heap
 * allocation counter (fed by the counting operator new in probe.cc,
 * which is linked into this executable only) and an in-memory span
 * recorder that writes Chrome trace-event JSON.
 *
 * The counter counts only while armed, so allocations made outside
 * timed ops and traced spans (set-up, reporting, the recorder's own
 * bookkeeping) never leak into a figure.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Allocations made by this thread while armed, since thread start. */
std::uint64_t allocCount();

/** Arm or disarm counting on this thread; returns the old state. */
bool armAllocCounter(bool armed);

/** Counts allocations on this thread for its lifetime. */
class AllocScope
{
  public:
    AllocScope() : wasArmed_(armAllocCounter(true)), start_(allocCount()) {}
    ~AllocScope() { armAllocCounter(wasArmed_); }
    AllocScope(const AllocScope &) = delete;
    AllocScope &operator=(const AllocScope &) = delete;

    std::uint64_t count() const { return allocCount() - start_; }

  private:
    bool wasArmed_;
    std::uint64_t start_;
};

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span: a timed call into one layer. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;   //!< index into the span list; -1 = root
    std::uint64_t op = 0;       //!< op id shared by every span of an op
    std::uint64_t allocs = 0;   //!< allocations inside the span
};

/** Per-name totals over every recorded span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;        //!< total minus time covered by children
    std::uint64_t allocs = 0;
};

/**
 * Process-wide span recorder. Disabled, a Scope costs one branch and
 * records nothing, so untraced ops run the same code as traced ones.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Op id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** RAII span around one call. @p name must be a string literal. */
    class Scope
    {
      public:
        explicit Scope(const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        std::int32_t index_ = -1;
        std::uint64_t allocStart_ = 0;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Totals per span name, with self time computed from parents. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as Chrome trace-event JSON (Perfetto opens it). */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::uint64_t op_ = 0;
    std::int32_t open_ = -1;    //!< innermost open span
    std::vector<Span> spans_;
};

} // namespace perfbench
