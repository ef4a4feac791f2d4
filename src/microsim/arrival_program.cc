#include "microsim/arrival_program.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace accel::microsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Evaluate @p p inside the segment that contains @p from, at time
 * @p at (which must lie in the same segment, endpoint included). Used
 * by compose() to take the left limit at a breakpoint exactly.
 */
double
rateOn(const ArrivalProgram &p, double from, double at)
{
    for (const ArrivalSegment &s : p.segments) {
        if (from >= s.startSeconds &&
            (from < s.endSeconds || !std::isfinite(s.endSeconds))) {
            if (!std::isfinite(s.endSeconds) ||
                s.startRate == s.endRate) {
                return s.startRate;
            }
            double frac = (at - s.startSeconds) /
                          (s.endSeconds - s.startSeconds);
            return s.startRate + (s.endRate - s.startRate) * frac;
        }
    }
    // Past the last segment: the program holds its final rate.
    return p.segments.empty() ? 0.0 : p.segments.back().endRate;
}

/**
 * The `time:rate[,time:rate]` breakpoints of an arrival_trace value,
 * as segments with only their start time and rate set.
 */
std::vector<ArrivalSegment>
breakpointsFromString(const std::string &text)
{
    std::vector<ArrivalSegment> points;
    for (const std::string &part : split(text, ',')) {
        std::string pair = trim(part);
        if (pair.empty())
            continue;
        auto fields = split(pair, ':');
        require(fields.size() == 2,
                "expected time:rate, got '" + pair + "'");
        points.push_back(
            {parseDouble(fields[0]), 0.0, parseDouble(fields[1]), 0.0});
    }
    require(!points.empty(), "no breakpoints");
    return points;
}

} // namespace

double
ArrivalProgram::rateAt(double tSeconds) const
{
    if (segments.empty())
        return 0.0;
    double t = tSeconds;
    if (periodSeconds > 0.0) {
        t = std::fmod(t, periodSeconds);
        if (t < 0.0)
            t += periodSeconds;
    }
    if (t >= segments.back().endSeconds)
        return segments.back().endRate;
    return rateOn(*this, t, t);
}

double
ArrivalProgram::peakRate() const
{
    double peak = 0.0;
    for (const ArrivalSegment &s : segments)
        peak = std::max(peak, std::max(s.startRate, s.endRate));
    return peak;
}

double
ArrivalProgram::meanRate(double horizonSeconds) const
{
    require(std::isfinite(horizonSeconds) && horizonSeconds > 0.0,
            "ArrivalProgram::meanRate: horizon must be finite and > 0");
    if (segments.empty())
        return 0.0;

    // Integral of r over one pass of the segments clipped to [0, h],
    // plus the held tail beyond the last segment.
    auto passIntegral = [this](double h) {
        double area = 0.0;
        for (const ArrivalSegment &s : segments) {
            double lo = s.startSeconds;
            double hi = std::min(s.endSeconds, h);
            if (hi <= lo)
                continue;
            double rLo = rateOn(*this, lo, lo);
            double rHi = rateOn(*this, lo, hi);
            area += 0.5 * (rLo + rHi) * (hi - lo);
        }
        double lastEnd = segments.back().endSeconds;
        if (std::isfinite(lastEnd) && h > lastEnd)
            area += segments.back().endRate * (h - lastEnd);
        return area;
    };

    if (periodSeconds > 0.0) {
        double whole = std::floor(horizonSeconds / periodSeconds);
        double rest = horizonSeconds - whole * periodSeconds;
        double area = whole * passIntegral(periodSeconds);
        if (rest > 0.0)
            area += passIntegral(rest);
        return area / horizonSeconds;
    }
    return passIntegral(horizonSeconds) / horizonSeconds;
}

bool
ArrivalProgram::isConstant() const
{
    if (segments.empty())
        return false;
    double r = segments.front().startRate;
    for (const ArrivalSegment &s : segments) {
        if (s.startRate != r || s.endRate != r)
            return false;
    }
    return true;
}

void
ArrivalProgram::validate() const
{
    require(std::isfinite(periodSeconds) && periodSeconds >= 0.0,
            "ArrivalProgram.periodSeconds must be finite and >= 0");
    if (segments.empty()) {
        require(periodSeconds == 0.0,
                "ArrivalProgram.periodSeconds set without segments");
        return;
    }
    require(segments.front().startSeconds == 0.0,
            "ArrivalProgram.segments must start at t = 0");
    for (size_t i = 0; i < segments.size(); ++i) {
        const ArrivalSegment &s = segments[i];
        require(std::isfinite(s.startSeconds) && s.startSeconds >= 0.0,
                "ArrivalSegment.startSeconds must be finite and >= 0");
        require(s.endSeconds > s.startSeconds,
                "ArrivalSegment.endSeconds must exceed startSeconds");
        require(std::isfinite(s.startRate) && s.startRate >= 0.0,
                "ArrivalSegment.startRate must be finite and >= 0");
        require(std::isfinite(s.endRate) && s.endRate >= 0.0,
                "ArrivalSegment.endRate must be finite and >= 0");
        if (!std::isfinite(s.endSeconds)) {
            require(i + 1 == segments.size(),
                    "ArrivalProgram: only the last segment may be "
                    "unbounded");
            require(s.startRate == s.endRate,
                    "ArrivalProgram: an unbounded segment cannot ramp");
        }
        if (i > 0) {
            require(s.startSeconds == segments[i - 1].endSeconds,
                    "ArrivalProgram.segments must be contiguous");
        }
    }
    if (periodSeconds > 0.0) {
        require(segments.back().endSeconds == periodSeconds,
                "ArrivalProgram.segments must tile [0, periodSeconds) "
                "exactly when periodic");
    }
    require(peakRate() > 0.0,
            "ArrivalProgram.segments must reach a positive rate");
}

ArrivalProgram
ArrivalProgram::constant(double rate)
{
    ArrivalProgram p;
    p.segments.push_back(ArrivalSegment{0.0, kInf, rate, rate});
    p.validate();
    return p;
}

ArrivalProgram
ArrivalProgram::dayTrace(double baseRate,
                         const std::vector<double> &stepFactors,
                         double secondsPerStep)
{
    require(!stepFactors.empty(),
            "ArrivalProgram::dayTrace: no step factors");
    require(std::isfinite(baseRate) && baseRate > 0.0,
            "ArrivalProgram::dayTrace: baseRate must be > 0");
    require(std::isfinite(secondsPerStep) && secondsPerStep > 0.0,
            "ArrivalProgram::dayTrace: secondsPerStep must be > 0");
    ArrivalProgram p;
    for (size_t i = 0; i < stepFactors.size(); ++i) {
        double r = baseRate * stepFactors[i];
        p.segments.push_back(
            ArrivalSegment{static_cast<double>(i) * secondsPerStep,
                           static_cast<double>(i + 1) * secondsPerStep,
                           r, r});
    }
    p.periodSeconds =
        static_cast<double>(stepFactors.size()) * secondsPerStep;
    p.validate();
    return p;
}

ArrivalProgram
ArrivalProgram::flashCrowd(double extraRate, double startSeconds,
                           double rampSeconds, double holdSeconds)
{
    require(std::isfinite(extraRate) && extraRate > 0.0,
            "ArrivalProgram::flashCrowd: extraRate must be > 0");
    require(std::isfinite(startSeconds) && startSeconds >= 0.0,
            "ArrivalProgram::flashCrowd: startSeconds must be >= 0");
    require(std::isfinite(rampSeconds) && rampSeconds >= 0.0,
            "ArrivalProgram::flashCrowd: rampSeconds must be >= 0");
    require(std::isfinite(holdSeconds) && holdSeconds >= 0.0,
            "ArrivalProgram::flashCrowd: holdSeconds must be >= 0");
    require(rampSeconds + holdSeconds > 0.0,
            "ArrivalProgram::flashCrowd: surge has zero duration");
    ArrivalProgram p;
    double t = startSeconds;
    if (t > 0.0)
        p.segments.push_back(ArrivalSegment{0.0, t, 0.0, 0.0});
    if (rampSeconds > 0.0) {
        p.segments.push_back(
            ArrivalSegment{t, t + rampSeconds, 0.0, extraRate});
        t += rampSeconds;
    }
    if (holdSeconds > 0.0) {
        p.segments.push_back(
            ArrivalSegment{t, t + holdSeconds, extraRate, extraRate});
        t += holdSeconds;
    }
    if (rampSeconds > 0.0) {
        p.segments.push_back(
            ArrivalSegment{t, t + rampSeconds, extraRate, 0.0});
        t += rampSeconds;
    }
    p.segments.push_back(ArrivalSegment{t, kInf, 0.0, 0.0});
    p.validate();
    return p;
}

ArrivalProgram
ArrivalProgram::compose(const std::vector<ArrivalProgram> &parts)
{
    require(!parts.empty(), "ArrivalProgram::compose: no parts");
    double period = parts.front().periodSeconds;
    for (const ArrivalProgram &part : parts) {
        part.validate();
        require(!part.empty(),
                "ArrivalProgram::compose: empty part");
        require(part.periodSeconds == period,
                "ArrivalProgram::compose: parts must agree on "
                "periodSeconds");
    }

    // Breakpoints: the union of every part's finite segment bounds.
    // Each part is linear between consecutive breakpoints, so the sum
    // is too — composed ramps stay exact.
    std::vector<double> bounds{0.0};
    for (const ArrivalProgram &part : parts) {
        for (const ArrivalSegment &s : part.segments) {
            bounds.push_back(s.startSeconds);
            if (std::isfinite(s.endSeconds))
                bounds.push_back(s.endSeconds);
        }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    ArrivalProgram out;
    out.periodSeconds = period;
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
        double lo = bounds[i];
        double hi = bounds[i + 1];
        double rLo = 0.0;
        double rHi = 0.0;
        for (const ArrivalProgram &part : parts) {
            rLo += rateOn(part, lo, lo);
            rHi += rateOn(part, lo, hi); // left limit at hi
        }
        out.segments.push_back(ArrivalSegment{lo, hi, rLo, rHi});
    }
    if (period == 0.0) {
        // Beyond the last breakpoint every part holds its final rate.
        double held = 0.0;
        for (const ArrivalProgram &part : parts)
            held += part.segments.back().endRate;
        out.segments.push_back(
            ArrivalSegment{bounds.back(), kInf, held, held});
    }
    out.validate();
    return out;
}

ArrivalProgram
arrivalProgramFromConfig(const Config &cfg, const std::string &section)
{
    ArrivalProgram program;
    std::string shape = "step";
    bool shaped = cfg.read(section, "arrival_shape", shape);
    require(shape == "step" || shape == "linear",
            Config::keyName(section, "arrival_shape") +
                ": want 'step' or 'linear', got '" + shape + "'");
    bool linear = shape == "linear";
    cfg.read(section, "arrival_period", program.periodSeconds);

    std::vector<ArrivalSegment> &segs = program.segments;
    if (cfg.read(section, "arrival_trace", segs, breakpointsFromString)) {
        for (size_t i = 0; i < segs.size(); ++i) {
            ArrivalSegment &seg = segs[i];
            if (i + 1 < segs.size()) {
                seg.endSeconds = segs[i + 1].startSeconds;
                seg.endRate = linear ? segs[i + 1].startRate : seg.startRate;
            } else if (program.periodSeconds > 0.0) {
                // Periodic: the last span closes the loop; a linear
                // trace ramps back to the first breakpoint's rate.
                seg.endSeconds = program.periodSeconds;
                seg.endRate = linear ? segs.front().startRate : seg.startRate;
            } else {
                seg.endSeconds = kInf;
                seg.endRate = seg.startRate;
            }
        }
    } else {
        require(program.periodSeconds == 0.0,
                Config::keyName(section, "arrival_period") +
                    ": set without arrival_trace");
        require(!shaped, Config::keyName(section, "arrival_shape") +
                             ": set without arrival_trace");
    }

    if (cfg.has(section, "arrival_flash_at")) {
        require(!program.segments.empty(),
                Config::keyName(section, "arrival_flash_at") +
                    ": set without arrival_trace");
        require(program.periodSeconds == 0.0,
                Config::keyName(section, "arrival_flash_at") +
                    ": a flash crowd on a periodic trace is unsupported; "
                    "unroll the trace instead");
        double ramp = 0.0;
        double hold = 0.0;
        cfg.read(section, "arrival_flash_ramp", ramp);
        cfg.read(section, "arrival_flash_hold", hold);
        ArrivalProgram flash = ArrivalProgram::flashCrowd(
            cfg.getDouble(section, "arrival_flash_extra"),
            cfg.getDouble(section, "arrival_flash_at"), ramp, hold);
        program = ArrivalProgram::compose({program, flash});
    }

    if (!program.empty())
        program.validate();
    return program;
}

} // namespace accel::microsim
