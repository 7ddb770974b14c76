#include "workloads.h"

#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"

namespace perfbench {

using namespace chameleon;

namespace {

/** The paper's testbed (§5.1): Llama-7B on one A40, chameleon preset. */
core::SystemSpec
testbedSpec()
{
    core::SystemSpec spec = core::SystemRegistry::global().lookup("chameleon");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    return spec;
}

workload::TraceGenConfig
splitwise(int adapters, double rps, double seconds, std::uint64_t seed)
{
    workload::TraceGenConfig gen = workload::splitwiseLike();
    gen.numAdapters = adapters;
    gen.rps = rps;
    gen.durationSeconds = seconds;
    gen.seed = seed;
    return gen;
}

/**
 * One A40 at 9 RPS, near the paper's knee, with 500 adapters: the
 * working set outgrows the GPU cache, so MLQ, eviction and PCIe carry
 * the load. Seven simulated hours keep the p99 tail steady across seeds
 * and the request count (~227k) away from a power of two, where
 * vector doubling would make peak memory jump between seeds.
 */
void
singleReplicaChurn(Workload *w, std::uint64_t seed)
{
    w->pool = std::make_unique<model::AdapterPool>(model::llama7B(), 500);
    w->gen = splitwise(500, 9.0, 25200.0, seed);
    w->spec = testbedSpec();
}

/**
 * 256 A40 replicas behind the §4.4 JSQ dispatcher at 8 RPS each, 100
 * adapters, 60 s: routing scans and per-replica bookkeeping dominate.
 * Caches start empty, so most misses are each replica's first loads
 * and the hit rate stays above the churn workload's.
 */
void
fleet256Jsq(Workload *w, std::uint64_t seed)
{
    constexpr int kReplicas = 256;
    w->pool = std::make_unique<model::AdapterPool>(model::llama7B(), 100);
    w->gen = splitwise(100, 8.0 * kReplicas, 60.0, seed);
    w->spec = testbedSpec();
    w->spec.cluster.replicas = kReplicas;
    w->spec.cluster.router = routing::RouterPolicy::JoinShortestQueue;
}

/**
 * A mixed A100-48 + A40 fleet that autoscales (boot delay, measured
 * demand, boot-aware horizon) under repeated 3x load steps, with peer
 * migration and the directory-backed affinity router (as in fig30) and
 * four tenants: the only workload that reaches the autoscaler, cold
 * start, the fabric and per-tenant accounting.
 */
void
autoscaleFabricStep(Workload *w, std::uint64_t seed)
{
    constexpr double kBaseRps = 9.0;
    constexpr double kPeriodSeconds = 300.0;
    constexpr int kSteps = 36;
    w->pool = std::make_unique<model::AdapterPool>(model::llama7B(), 100);
    w->gen = splitwise(100, kBaseRps, kPeriodSeconds * kSteps, seed);
    for (int i = 0; i < kSteps; ++i) {
        const double start = kPeriodSeconds * i + 60.0;
        w->gen.bursts.push_back(workload::Burst{start, start + 120.0, 3.0});
    }
    w->gen.numTenants = 4;

    core::SystemSpec &spec = w->spec;
    spec = testbedSpec();
    spec.tenancy.tenants = 4;
    spec.cluster.replicas = 2;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    spec.cluster.replicaEngines = {fast, spec.engine};
    spec.cluster.router = routing::RouterPolicy::AdapterAffinityDirectory;
    spec.cluster.autoscale = true;
    routing::AutoscalerConfig &as = spec.cluster.autoscaler;
    as.minReplicas = 2;
    as.maxReplicas = 8;
    as.replicaServiceRps = kBaseRps;
    as.downCooldownPeriods = 4;
    as.bootMs = 8000.0;
    as.measuredRateAlpha = 0.3;
    as.demandSource = routing::DemandSource::Measured;
    as.bootAwareHorizon = true;
    spec.fabric.migration = fabric::MigrationPolicy::All;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "single-replica-churn", "fleet256-jsq", "autoscale-fabric-step"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    out->name = name;
    if (name == "single-replica-churn")
        singleReplicaChurn(out, seed);
    else if (name == "fleet256-jsq")
        fleet256Jsq(out, seed);
    else if (name == "autoscale-fabric-step")
        autoscaleFabricStep(out, seed);
    else
        return false;
    out->spec.name = name;
    return true;
}

} // namespace perfbench
