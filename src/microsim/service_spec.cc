#include "microsim/service_spec.hh"

#include <utility>

#include "model/config_frontend.hh"
#include "util/logging.hh"

namespace accel::microsim {

using model::ThreadingDesign;

ServiceSpec &
ServiceSpec::name(std::string n)
{
    name_ = std::move(n);
    return *this;
}

ServiceSpec &
ServiceSpec::service(const ServiceConfig &svc)
{
    service_ = svc;
    return *this;
}

ServiceSpec &
ServiceSpec::accelerator(const AcceleratorConfig &dev)
{
    accel_ = dev;
    return *this;
}

ServiceSpec &
ServiceSpec::tier(const TierConfig &t)
{
    tier_ = t;
    return *this;
}

ServiceSpec &
ServiceSpec::workload(const WorkloadSpec &w)
{
    workload_ = w;
    return *this;
}

ServiceSpec &
ServiceSpec::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

ServiceSpec &
ServiceSpec::sharedTier(std::string tierName)
{
    sharedTierName_ = std::move(tierName);
    return *this;
}

std::vector<std::string>
ServiceSpec::errors() const
{
    std::vector<std::string> out;
    collectFatal(out, "", [this] { service_.validate(); });
    collectFatal(out, "", [this] { accel_.validate(); });
    collectFatal(out, "", [this] { tier_.validate(); });
    collectFatal(out, "", [this] { workload_.validate(); });
    // Cross-config rules. The hedging + Sync check used to hard-throw
    // in the ServiceSim constructor; here it is just one more entry,
    // so ServiceGraph::validate can report every invalid node at once.
    if (tier_.hedge.enabled && service_.design == ThreadingDesign::Sync) {
        out.push_back(
            "TierConfig.hedge cannot help ServiceConfig.design = Sync "
            "(the blocked driver waits on its single offload); use an "
            "async design or Sync-OS, or disable hedging");
    }
    if (!sharedTierName_.empty()) {
        if (!tier_.trivial()) {
            out.push_back(
                "ServiceSpec.sharedTier ('" + sharedTierName_ +
                "') excludes a non-trivial ServiceSpec.tier of its "
                "own: the graph-owned tier replaces it");
        }
        if (service_.autoscaler.enabled) {
            out.push_back(
                "ServiceSpec.sharedTier ('" + sharedTierName_ +
                "') excludes ServiceConfig.autoscaler: one service's "
                "controller cannot own a tier other services contend "
                "for");
        }
    }
    return out;
}

void
ServiceSpec::validate() const
{
    std::vector<std::string> errs = errors();
    if (errs.empty())
        return;
    std::string msg = "ServiceSpec '" + name_ + "':";
    for (const std::string &e : errs)
        msg += "\n  - " + e;
    fatal(msg);
}

std::unique_ptr<ServiceSim>
ServiceSpec::buildSim() const
{
    require(sharedTierName_.empty(),
            "ServiceSpec '" + name_ + "': sharedTier ('" +
                sharedTierName_ +
                "') requires a ServiceGraph; buildSim() constructs a "
                "standalone instance");
    return std::make_unique<ServiceSim>(*this);
}

ServiceSpec
ServiceSpec::fromConfig(const Config &cfg, const std::string &section)
{
    ServiceSpec spec(section);

    ServiceConfig &svc = spec.service_;
    cfg.read(section, "cores", svc.cores);
    cfg.read(section, "threads", svc.threads);
    svc.design = model::threadingFromConfig(cfg, section);
    cfg.read(section, "strategy", svc.strategy, model::strategyFromString);
    cfg.read(section, "clock_ghz", svc.clockGHz);
    cfg.read(section, "accelerated", svc.accelerated);
    cfg.read(section, "offload_setup", svc.offloadSetupCycles);
    cfg.read(section, "context_switch", svc.contextSwitchCycles);
    cfg.read(section, "cache_pollution", svc.cachePollutionCycles);
    cfg.read(section, "response_pickup", svc.responsePickupCycles);
    cfg.read(section, "unmodeled_per_offload",
             svc.unmodeledPerOffloadCycles);
    cfg.read(section, "driver_waits_for_ack", svc.driverWaitsForAck);
    cfg.read(section, "min_offload_bytes", svc.minOffloadBytes);
    cfg.read(section, "max_outstanding", svc.maxOutstanding);
    cfg.read(section, "max_arrival_queue", svc.maxArrivalQueue);
    cfg.read(section, "open_arrivals_per_sec", svc.openArrivalsPerSec);

    // Presence of retry_timeout enables the deadline/retry layer, and
    // only then are its dependent keys read.
    RetryPolicy &retry = svc.retry;
    if (cfg.read(section, "retry_timeout", retry.timeoutCycles)) {
        cfg.read(section, "retry_max_attempts", retry.maxAttempts);
        cfg.read(section, "retry_backoff_base", retry.backoffBaseCycles);
        cfg.read(section, "retry_backoff_factor", retry.backoffFactor);
        cfg.read(section, "retry_backoff_cap", retry.backoffCapCycles);
        cfg.read(section, "retry_host_fallback", retry.hostFallback);
    }
    svc.breaker = breakerFromConfig(cfg, section, "");
    svc.arrivalProgram = arrivalProgramFromConfig(cfg, section);
    svc.autoscaler = autoscalerFromConfig(cfg, section);

    AcceleratorConfig &dev = spec.accel_;
    cfg.read(section, "accel_speedup", dev.speedupFactor);
    cfg.read(section, "accel_fixed_latency", dev.fixedLatencyCycles);
    cfg.read(section, "accel_latency_per_byte", dev.latencyCyclesPerByte);
    cfg.read(section, "accel_channels", dev.channels);
    dev.faultPlan = model::faultPlanFromConfig(cfg, section);

    WorkloadSpec &work = spec.workload_;
    cfg.read(section, "work_non_kernel_cycles", work.nonKernelCyclesMean);
    cfg.read(section, "work_non_kernel_cv", work.nonKernelCv);
    cfg.read(section, "work_kernels_per_request", work.kernelsPerRequest);
    cfg.read(section, "work_granularity_cdf", work.granularity,
             [](const std::string &cdf) {
                 return std::make_shared<const BucketDist>(
                     model::granularityFromConfig(cdf));
             });
    cfg.read(section, "work_cycles_per_byte", work.cyclesPerByte);
    cfg.read(section, "work_beta", work.beta);

    spec.tier_ = tierFromConfig(cfg, section);
    cfg.read(section, "seed", spec.seed_);
    cfg.read(section, "shared_tier", spec.sharedTierName_);
    // Every recognised key has been read by now (gated keys only when
    // their group is enabled); anything left is almost always a typo.
    cfg.rejectUnknownKeys(section);
    return spec;
}

} // namespace accel::microsim
