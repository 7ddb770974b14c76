#include "chameleon/system_spec.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "model/adapter.h"

namespace chameleon::core {

sim::EnumTable<SchedulerPolicy>
enumTable(SchedulerPolicy)
{
    static constexpr sim::EnumName<SchedulerPolicy> kNames[] = {
        {SchedulerPolicy::Fifo, "fifo"},
        {SchedulerPolicy::Sjf, "sjf"},
        {SchedulerPolicy::Mlq, "mlq"},
        {SchedulerPolicy::Wfq, "wfq"},
        {SchedulerPolicy::Drr, "drr"},
    };
    return kNames;
}

sim::EnumTable<PredictorKind>
enumTable(PredictorKind)
{
    static constexpr sim::EnumName<PredictorKind> kNames[] = {
        {PredictorKind::Bert, "bert"},
        {PredictorKind::History, "history"},
    };
    return kNames;
}

sim::EnumTable<AdapterPolicy>
enumTable(AdapterPolicy)
{
    static constexpr sim::EnumName<AdapterPolicy> kNames[] = {
        {AdapterPolicy::OnDemand, "on-demand"},
        {AdapterPolicy::SLora, "slora"},
        {AdapterPolicy::ChameleonCache, "chameleon-cache"},
    };
    return kNames;
}

sim::EnumTable<EvictionKind>
enumTable(EvictionKind)
{
    static constexpr sim::EnumName<EvictionKind> kNames[] = {
        {EvictionKind::Paper, "chameleon"},
        {EvictionKind::Lru, "lru"},
        {EvictionKind::FairShare, "fairshare"},
        {EvictionKind::Gdsf, "gdsf"},
    };
    return kNames;
}

sim::EnumTable<ReservationPolicy>
enumTable(ReservationPolicy)
{
    static constexpr sim::EnumName<ReservationPolicy> kNames[] = {
        {ReservationPolicy::Auto, "auto"},
        {ReservationPolicy::MaxTokens, "max-tokens"},
        {ReservationPolicy::Predicted, "predicted"},
    };
    return kNames;
}

const std::vector<EvictionKind> &
allEvictionPolicies()
{
    static const std::vector<EvictionKind> all{
        EvictionKind::Paper, EvictionKind::Lru,
        EvictionKind::FairShare, EvictionKind::Gdsf};
    return all;
}

double
TenancySpec::weightFor(int tenant) const
{
    if (tenant < 0 || tenant >= static_cast<int>(weights.size()))
        return 1.0;
    return weights[static_cast<std::size_t>(tenant)];
}

double
TenancySpec::sloMultiplierFor(int tenant) const
{
    if (tenant < 0 || tenant >= static_cast<int>(sloMultipliers.size()))
        return 1.0;
    return sloMultipliers[static_cast<std::size_t>(tenant)];
}

SystemSpec &
SystemSpec::named(std::string n)
{
    name = std::move(n);
    return *this;
}

SystemSpec &
SystemSpec::withScheduler(SchedulerPolicy p)
{
    scheduler.policy = p;
    return *this;
}

SystemSpec &
SystemSpec::withEviction(EvictionKind e)
{
    adapters.policy = AdapterPolicy::ChameleonCache;
    adapters.eviction = e;
    return *this;
}

SystemSpec &
SystemSpec::withPrefetch(std::size_t topK)
{
    adapters.predictivePrefetch = true;
    adapters.prefetchTopK = topK;
    return *this;
}

SystemSpec &
SystemSpec::withReplicas(int replicas, routing::RouterPolicy router)
{
    cluster.replicas = replicas;
    cluster.router = router;
    return *this;
}

SystemSpec &
SystemSpec::withFleet(const std::vector<model::GpuSpec> &gpus,
                      routing::RouterPolicy router)
{
    cluster.replicas = static_cast<int>(gpus.size());
    cluster.router = router;
    cluster.replicaEngines = serving::fleetEngines(engine, gpus);
    return *this;
}

bool
hasHardware(const serving::EngineConfig &engine)
{
    return !(engine.model == model::ModelSpec{}) &&
           !(engine.gpu == model::GpuSpec{});
}

const serving::EngineConfig &
SystemSpec::resolvedEngine(std::size_t replica) const
{
    if (replica < cluster.replicaEngines.size())
        return cluster.replicaEngines[replica];
    return engine;
}

namespace {

/**
 * The rules across one engine's leaves, checked once its hardware is
 * chosen and none of the first `domainErrors` errors names a leaf under
 * `key` (so the products below fit int64 and the quotients are finite):
 *  - the weights plus a workspace per GPU fit the TP group's memory
 *    (gpu_memory.cc), with room for one KV token under MLQ (system.cc);
 *  - a request at the longest context and largest paper rank, served
 *    alone, and a cold-start weight load each take at most
 *    sim::kMaxSpanSeconds, so isolated latencies fit SimTime (time.h).
 */
void
checkEngine(const std::string &key, const serving::EngineConfig &engine,
            bool mlq, std::size_t domainErrors,
            std::vector<std::string> *errors)
{
    const std::string under = key + ".";
    for (std::size_t i = 0; i < domainErrors; ++i) {
        if ((*errors)[i].compare(0, under.size(), under) == 0)
            return;
    }
    if (!hasHardware(engine))
        return;
    const model::ModelSpec &m = engine.model;
    const std::int64_t tp = engine.tpDegree;
    const std::int64_t room = tp * engine.gpu.memBytes - m.weightsBytes() -
                              tp * engine.workspacePerGpu;
    const std::int64_t need = mlq ? m.kvBytesPerToken() : 0;
    if (room < need) {
        std::ostringstream os;
        os << key << ": " << m.name << " weights (" << m.weightsBytes()
           << " B) plus tp_degree " << tp << " x workspace_per_gpu ("
           << engine.workspacePerGpu << " B) leave " << room
           << " B of tp_degree x gpu.mem_bytes ("
           << tp * engine.gpu.memBytes << " B)";
        if (mlq)
            os << "; the MLQ scheduler needs room for one KV token ("
               << need << " B)";
        os << "; raise tp_degree or pick a larger GPU";
        errors->push_back(os.str());
    }
    // cost_model.cc's terms at the longest context and largest rank.
    const model::CostParams &p = engine.cost;
    const model::CostModel cost(m, engine.gpu, engine.tpDegree, p);
    const double context = static_cast<double>(model::kMaxContextTokens);
    const double rank = model::paperRanks().back();
    const double lora = 2.0 * rank * m.layers * m.loraDimsPerLayer();
    const double prefill = (p.prefillFixedMs + p.mbgmmFixedMs) * 1e-3 +
                           context * (m.flopsPerToken() + p.loraIneff * lora) /
                               cost.effectiveFlops();
    const double weights = static_cast<double>(m.weightsBytes());
    const double decode =
        (p.decodeFixedMs + p.mbgmvFixedMs) * 1e-3 +
        (p.decodeReqUs + p.decodeRankUs * rank) * 1e-6 +
        (weights + context * static_cast<double>(m.kvBytesPerToken())) /
            cost.effectiveMemBandwidth();
    const double load = weights / engine.gpu.pcieBandwidth;
    if (std::max(prefill + context * decode, load) > sim::kMaxSpanSeconds) {
        std::ostringstream os;
        os << key << ": a " << model::kMaxContextTokens
           << "-token request takes " << prefill << " s to prefill and "
           << decode << " s per decode step, and a cold start loads the "
           << "weights in " << load << " s; the request or the load takes "
           << "longer than the " << sim::kMaxSpanSeconds << " s a span "
           << "may last; lower the cost times or raise gpu.fp16_flops, "
           << "gpu.mem_bandwidth, gpu.pcie_bandwidth or the utilisations";
        errors->push_back(os.str());
    }
}

} // namespace

std::vector<std::string>
SystemSpec::validate() const
{
    std::vector<std::string> errors;
    sim::checkDomains(*this, &errors);
    const std::size_t domainErrors = errors.size();
    auto err = [&errors](const std::ostringstream &os) {
        errors.push_back(os.str());
    };
    const bool mlq = scheduler.policy == SchedulerPolicy::Mlq;
    checkEngine("engine", engine, mlq, domainErrors, &errors);
    for (std::size_t i = 0; i < cluster.replicaEngines.size(); ++i) {
        checkEngine("cluster.replicas[" + std::to_string(i) + "]",
                    cluster.replicaEngines[i], mlq, domainErrors, &errors);
    }
    if (!cluster.replicaEngines.empty() &&
        static_cast<int>(cluster.replicaEngines.size()) !=
            cluster.replicas) {
        std::ostringstream os;
        os << "cluster.replicas lists " << cluster.replicaEngines.size()
           << " per-replica engines for " << cluster.replicas
           << " replicas; give exactly one override per replica (or an "
           << "integer count for a homogeneous fleet)";
        err(os);
    }
    if (adapters.predictivePrefetch && adapters.prefetchTopK == 0) {
        std::ostringstream os;
        os << "adapters.predictive_prefetch is true with "
           << "adapters.prefetch_top_k = 0; set adapters.prefetch_top_k "
           << "(paper uses 8)";
        err(os);
    }
    if (!adapters.predictivePrefetch && adapters.prefetchTopK > 0) {
        std::ostringstream os;
        os << "adapters.prefetch_top_k = " << adapters.prefetchTopK
           << " without prefetch enabled; set "
           << "adapters.predictive_prefetch to true (or prefetch_top_k "
           << "to 0)";
        err(os);
    }
    if (adapters.predictivePrefetch &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "adapters.predictive_prefetch requires the chameleon "
           << "cache; set adapters.policy to \"chameleon-cache\" (got \""
           << adapterPolicyName(adapters.policy) << "\")";
        err(os);
    }
    if (adapters.eviction != EvictionKind::Paper &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "adapters.eviction \"" << evictionPolicyName(adapters.eviction)
           << "\" requires the chameleon cache; set adapters.policy to "
           << "\"chameleon-cache\" (got \""
           << adapterPolicyName(adapters.policy) << "\")";
        err(os);
    }
    for (const auto &[key, list] :
         {std::pair{"weights", &tenancy.weights},
          std::pair{"slo_multipliers", &tenancy.sloMultipliers}}) {
        if (!list->empty() &&
            static_cast<int>(list->size()) != tenancy.tenants) {
            std::ostringstream os;
            os << "tenancy." << key << " has " << list->size()
               << " entries but tenancy.tenants = " << tenancy.tenants
               << "; give one per tenant (or clear the list for all 1.0)";
            err(os);
        }
    }
    if (fabricEnabled() &&
        adapters.policy != AdapterPolicy::ChameleonCache) {
        std::ostringstream os;
        os << "the cache fabric (fabric.migration \""
           << fabric::migrationPolicyName(fabric.migration)
           << "\", cluster.router \""
           << routing::routerPolicyName(cluster.router)
           << "\") needs residency callbacks only the chameleon cache "
           << "reports; set adapters.policy to \"chameleon-cache\" (got \""
           << adapterPolicyName(adapters.policy) << "\")";
        err(os);
    }
    if (cluster.autoscale) {
        const auto &as = cluster.autoscaler;
        if (as.maxReplicas < as.minReplicas) {
            std::ostringstream os;
            os << "cluster.autoscaler.max_replicas (" << as.maxReplicas
               << ") must be >= min_replicas (" << as.minReplicas << ")";
            err(os);
        }
        if (as.lowWatermark >= as.highWatermark) {
            std::ostringstream os;
            os << "cluster.autoscaler.low_watermark (" << as.lowWatermark
               << ") must be < high_watermark (" << as.highWatermark
               << "); replicas drain below the low mark and are added "
               << "above the high one";
            err(os);
        }
        if (as.demandSource == routing::DemandSource::Measured &&
            as.measuredRateAlpha <= 0.0) {
            std::ostringstream os;
            os << "cluster.autoscaler.demand_source \"measured\" needs "
               << "measured_rate_alpha > 0 — without the per-replica "
               << "EWMAs the capacity signals silently degrade to the "
               << "nominal rates; set measured_rate_alpha (or keep "
               << "demand_source 'nominal')";
            err(os);
        }
    }
    return errors;
}

namespace presets {

namespace {

/** Common base: engine/predictor at defaults, axes set per preset. */
SystemSpec
base(const char *name)
{
    SystemSpec spec;
    spec.name = name;
    return spec;
}

} // namespace

SystemSpec
slora()
{
    SystemSpec spec = base("slora");
    spec.scheduler.policy = SchedulerPolicy::Fifo;
    spec.adapters.policy = AdapterPolicy::SLora;
    return spec;
}

SystemSpec
sloraSjf()
{
    SystemSpec spec = slora();
    spec.name = "slora-sjf";
    spec.scheduler.policy = SchedulerPolicy::Sjf;
    return spec;
}

SystemSpec
sloraChunked()
{
    SystemSpec spec = slora();
    spec.name = "slora-chunked";
    spec.chunkedPrefill = true;
    spec.chunkTokens = 64;
    return spec;
}

SystemSpec
chameleonNoCache()
{
    SystemSpec spec = base("chameleon-nocache");
    spec.scheduler.policy = SchedulerPolicy::Mlq;
    spec.adapters.policy = AdapterPolicy::SLora;
    return spec;
}

SystemSpec
chameleonNoSched()
{
    SystemSpec spec = base("chameleon-nosched");
    spec.scheduler.policy = SchedulerPolicy::Fifo;
    spec.adapters.policy = AdapterPolicy::ChameleonCache;
    return spec;
}

SystemSpec
chameleon()
{
    SystemSpec spec = base("chameleon");
    spec.scheduler.policy = SchedulerPolicy::Mlq;
    spec.adapters.policy = AdapterPolicy::ChameleonCache;
    return spec;
}

SystemSpec
chameleonLru()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-lru";
    spec.adapters.eviction = EvictionKind::Lru;
    return spec;
}

SystemSpec
chameleonFairShare()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-fairshare";
    spec.adapters.eviction = EvictionKind::FairShare;
    return spec;
}

SystemSpec
chameleonGdsf()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-gdsf";
    spec.adapters.eviction = EvictionKind::Gdsf;
    return spec;
}

SystemSpec
chameleonPrefetch()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-prefetch";
    spec.adapters.predictivePrefetch = true;
    spec.adapters.prefetchTopK = 8;
    return spec;
}

SystemSpec
chameleonStatic()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-static";
    spec.scheduler.dynamicQueues = false;
    return spec;
}

SystemSpec
chameleonOutputOnly()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-output-only";
    spec.scheduler.wrsForm = WrsForm::OutputOnly;
    return spec;
}

SystemSpec
chameleonDegree1()
{
    SystemSpec spec = chameleon();
    spec.name = "chameleon-degree1";
    spec.scheduler.wrsForm = WrsForm::Degree1;
    return spec;
}

} // namespace presets

} // namespace chameleon::core
