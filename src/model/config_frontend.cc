#include "model/config_frontend.hh"

#include <optional>
#include <sstream>

#include "model/granularity.hh"
#include "model/report.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace accel::model {

namespace {

AlphaWeighting
weightingFromString(const std::string &text)
{
    std::string t = toLower(text);
    require(t == "count" || t == "bytes",
            "want 'count' or 'bytes', got '" + text + "'");
    return t == "count" ? AlphaWeighting::CountWeighted
                        : AlphaWeighting::BytesWeighted;
}

} // namespace

BucketDist
granularityFromConfig(const std::string &literal)
{
    std::vector<DistBucket> buckets;
    for (const std::string &part : split(literal, ',')) {
        std::string triple = trim(part);
        if (triple.empty())
            continue;
        auto fields = split(triple, ':');
        require(fields.size() == 3,
                "expected lo:hi:mass, got '" + triple + "'");
        buckets.push_back({parseDouble(fields[0]),
                           parseDouble(fields[1]),
                           parseDouble(fields[2])});
    }
    require(!buckets.empty(), "no buckets");
    return BucketDist(std::move(buckets));
}

Params
paramsFromConfig(const Config &cfg, const std::string &section)
{
    Params p;
    p.hostCycles = cfg.getDouble(section, "C");
    p.alpha = cfg.getDouble(section, "alpha");
    cfg.read(section, "o0", p.setupCycles);
    cfg.read(section, "Q", p.queueCycles);
    cfg.read(section, "L", p.interfaceCycles);
    cfg.read(section, "o1", p.threadSwitchCycles);
    cfg.read(section, "A", p.accelFactor);
    cfg.read(section, "offloaded_fraction", p.offloadedFraction);
    cfg.read(section, "strategy", p.strategy, strategyFromString);

    std::optional<BucketDist> sizes;
    if (cfg.read(section, "granularity_cdf", sizes, granularityFromConfig)) {
        // Planner mode: derive n and the offloaded fraction from the
        // kernel's size distribution and per-byte cost.
        require(!cfg.has(section, "n"),
                Config::keyName(section, "n") +
                    ": give either n or a granularity_cdf, not both");
        OffloadProfit profit{cfg.getDouble(section, "cb")};
        cfg.read(section, "beta", profit.beta);
        double n_total = cfg.getDouble(section, "n_total");
        AlphaWeighting weighting = AlphaWeighting::CountWeighted;
        cfg.read(section, "weighting", weighting, weightingFromString);
        auto plan = planOffloads(*sizes, n_total, p.alpha, profit,
                                 threadingFromConfig(cfg, section), p,
                                 weighting);
        p = applyPlan(p, p.alpha, plan);
    } else {
        p.offloads = cfg.getDouble(section, "n");
    }
    p.validate();
    return p;
}

ThreadingDesign
threadingFromConfig(const Config &cfg, const std::string &section)
{
    ThreadingDesign design = ThreadingDesign::Sync;
    cfg.read(section, "threading", design, threadingFromString);
    return design;
}

std::shared_ptr<const faults::FaultPlan>
faultPlanFromConfig(const Config &cfg, const std::string &section)
{
    return faultPlanFromConfig(cfg, section, "fault_");
}

std::shared_ptr<const faults::FaultPlan>
faultPlanFromConfig(const Config &cfg, const std::string &section,
                    const std::string &prefix)
{
    // Any key enables the plan (|= still reads every key).
    faults::FaultPlan plan;
    bool any = cfg.read(section, prefix + "seed", plan.seed);
    any |= cfg.read(section, prefix + "drop_p", plan.dropProbability);
    any |= cfg.read(section, prefix + "late_p", plan.lateProbability);
    any |= cfg.read(section, prefix + "late_cycles", plan.lateDelayCycles);
    any |= cfg.read(section, prefix + "spike_p",
                    plan.transferSpikeProbability);
    any |= cfg.read(section, prefix + "spike_factor",
                    plan.transferSpikeFactor);
    any |= cfg.read(section, prefix + "stalls", plan.stallWindows,
                    windowsFromString);
    any |= cfg.read(section, prefix + "fail_at", plan.deviceFailAtTick);
    any |= cfg.read(section, prefix + "recover_at",
                    plan.deviceRecoverAtTick);
    if (!any)
        return nullptr;
    plan.validate();
    return std::make_shared<const faults::FaultPlan>(std::move(plan));
}

std::vector<faults::StallWindow>
windowsFromString(const std::string &text)
{
    std::vector<faults::StallWindow> windows;
    for (const std::string &w : split(text, ',')) {
        std::vector<std::string> ends = split(w, ':');
        require(ends.size() == 2,
                "want begin:end[,begin:end] in ticks, got '" + w + "'");
        windows.push_back({parseCount(ends[0]), parseCount(ends[1])});
    }
    return windows;
}

std::vector<ConfigCase>
casesFromConfig(const Config &cfg)
{
    std::vector<ConfigCase> cases;
    for (const std::string &section : cfg.sections()) {
        if (section.empty() && cfg.keys(section).empty())
            continue;
        ConfigCase c;
        c.name = section.empty() ? "(global)" : section;
        c.params = paramsFromConfig(cfg, section);
        c.design = threadingFromConfig(cfg, section);
        cases.push_back(std::move(c));
    }
    return cases;
}

std::string
runConfigFile(const std::string &path)
{
    Config cfg = Config::fromFile(path);
    std::vector<ConfigCase> cases = casesFromConfig(cfg);
    if (cases.empty())
        fatal("config '" + path + "' defines no parameter sections");
    std::ostringstream os;
    for (const auto &c : cases) {
        os << projectionReport(c.params, "== " + c.name + " ==");
        os << projectionLine(c.params, c.design) << "\n\n";
    }
    return os.str();
}

} // namespace accel::model
