/**
 * @file
 * Declarative system descriptions: the SystemSpec policy axes.
 *
 * A serving system is a point in a small policy space — scheduler x
 * adapter management x eviction x prediction x a few knobs (prefetch,
 * bypass, reservation, chunking) x deployment (replicas, routing,
 * autoscaling). SystemSpec names each axis explicitly so any
 * combination can be described, validated, and run through the Runner,
 * instead of being one variant of a closed enum. The paper's 13
 * evaluated systems are preset specs (presets::chameleon() etc.),
 * registered by name in the SystemRegistry (system_registry.h).
 */

#ifndef CHAMELEON_CHAMELEON_SYSTEM_SPEC_H
#define CHAMELEON_CHAMELEON_SYSTEM_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "chameleon/eviction.h"
#include "chameleon/wrs.h"
#include "fabric/cache_fabric.h"
#include "routing/autoscaler.h"
#include "routing/router.h"
#include "serving/engine.h"
#include "simkit/enum_table.h"
#include "simkit/fields.h"
#include "simkit/time.h"

namespace chameleon::core {

/** Admission-order policy of each engine's local scheduler. */
enum class SchedulerPolicy {
    Fifo, ///< Arrival order (S-LoRA's scheduler).
    Sjf,  ///< Predicted-shortest-first (uServe [46]).
    Mlq,  ///< Chameleon multi-level queues with quotas (§4.3).
    Wfq,  ///< Weighted fair queueing across tenants (tenancy layer).
    Drr,  ///< Deficit round robin across tenants (tenancy layer).
};

/** How adapters are moved to / kept in GPU memory. */
enum class AdapterPolicy {
    OnDemand,       ///< Fetch on demand, discard on idle, no prefetch.
    SLora,          ///< On-demand + async prefetch for queued requests.
    ChameleonCache, ///< Transparent idle-memory adapter cache (§4.2).
};

/** KV reservation accounting at admission time. */
enum class ReservationPolicy {
    Auto,      ///< Predicted iff the scheduler is Mlq (paper wiring).
    MaxTokens, ///< Conservative input + maxNewTokens (S-LoRA style).
    Predicted, ///< Input + predicted output (Chameleon admission).
};

/** Output-length predictor the engines consult. */
enum class PredictorKind {
    Bert,    ///< Accuracy-knob proxy of the paper's BERT predictor.
    History, ///< Online EWMA of observed output lengths.
};

/** Name tables (simkit/enum_table.h); the wrappers below read them. */
sim::EnumTable<SchedulerPolicy> enumTable(SchedulerPolicy);
sim::EnumTable<PredictorKind> enumTable(PredictorKind);
sim::EnumTable<AdapterPolicy> enumTable(AdapterPolicy);
sim::EnumTable<EvictionKind> enumTable(EvictionKind);
sim::EnumTable<ReservationPolicy> enumTable(ReservationPolicy);

inline const char *schedulerPolicyName(SchedulerPolicy policy)
{
    return sim::enumName(policy);
}
inline const char *adapterPolicyName(AdapterPolicy policy)
{
    return sim::enumName(policy);
}
inline const char *evictionPolicyName(EvictionKind policy)
{
    return sim::enumName(policy);
}
inline const char *reservationPolicyName(ReservationPolicy policy)
{
    return sim::enumName(policy);
}

/** Parse canonical policy names; return false on unknown names. */
inline bool
schedulerPolicyByName(const std::string &name, SchedulerPolicy *out)
{
    return sim::enumByName(name, out);
}
inline bool adapterPolicyByName(const std::string &name, AdapterPolicy *out)
{
    return sim::enumByName(name, out);
}
inline bool evictionPolicyByName(const std::string &name, EvictionKind *out)
{
    return sim::enumByName(name, out);
}
inline bool
reservationPolicyByName(const std::string &name, ReservationPolicy *out)
{
    return sim::enumByName(name, out);
}

/** All eviction policies, for registry/bench enumeration. */
const std::vector<EvictionKind> &allEvictionPolicies();

/** Output-length predictor axis. */
struct PredictorSpec
{
    PredictorKind kind = PredictorKind::Bert;
    /** Accuracy of the bert proxy (paper's predictor: ~0.8). */
    double accuracy = 0.8;
    std::uint64_t seed = 0xC0FFEE;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("kind", &PredictorSpec::kind);
        v.field("accuracy", &PredictorSpec::accuracy, sim::within(0.0, 1.0));
        v.seed("seed", &PredictorSpec::seed);
    }
};

/** Scheduler axis: policy plus the knobs presets vary. */
struct SchedulerSpec
{
    SchedulerPolicy policy = SchedulerPolicy::Mlq;
    /** SJF anti-starvation aging (tokens/second; 0 disables). */
    double sjfAgingPerSecond = 0.0;
    // --- MLQ knobs (§4.3); ignored by Fifo/Sjf ---
    /** Per-queue SLO used in quota assignment, seconds. */
    double sloSeconds = 5.0;
    /** Queue/quota reconfiguration period (§4.3.4). */
    sim::SimTime refreshPeriod = 300 * sim::kSec;
    /** Opportunistic bypass (§4.3.3). */
    bool bypass = true;
    /** Dynamic queue count/cutoffs/quotas; false = Fig. 22 static. */
    bool dynamicQueues = true;
    /** WRS formula (§4.3.1). */
    WrsForm wrsForm = WrsForm::Degree2;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("policy", &SchedulerSpec::policy);
        v.field("sjf_aging_per_second", &SchedulerSpec::sjfAgingPerSecond,
                sim::finite());
        // MLQ quota assignment divides by it.
        v.field("slo_seconds", &SchedulerSpec::sloSeconds,
                sim::positive(sim::kMaxSpanSeconds));
        v.seconds("refresh_period_s", &SchedulerSpec::refreshPeriod,
                  sim::nonNegative(sim::kMaxSpanSeconds));
        v.field("bypass", &SchedulerSpec::bypass);
        v.field("dynamic_queues", &SchedulerSpec::dynamicQueues);
        v.field("wrs_form", &SchedulerSpec::wrsForm);
    }
};

/** Adapter-management axis. */
struct AdapterSpec
{
    AdapterPolicy policy = AdapterPolicy::ChameleonCache;
    /** Cache eviction score; requires ChameleonCache. */
    EvictionKind eviction = EvictionKind::Paper;
    /** Histogram-based predictive prefetch (§4.2.3). */
    bool predictivePrefetch = false;
    /** Prefetch width (adapters per cycle); 0 = unset. */
    std::size_t prefetchTopK = 0;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("policy", &AdapterSpec::policy);
        v.field("eviction", &AdapterSpec::eviction);
        v.field("predictive_prefetch", &AdapterSpec::predictivePrefetch);
        v.field("prefetch_top_k", &AdapterSpec::prefetchTopK,
                sim::nonNegative());
    }
};

/**
 * Tenancy axis: who shares the system and on what terms. With the
 * default (1 tenant, no overrides) the axis is inert: every request
 * carries the anonymous tenant 0 and all schedulers behave exactly as
 * before the tenancy layer existed. The WFQ/DRR scheduler policies and
 * the per-tenant report/metrics groups read their weights and SLO
 * scales from here.
 */
struct TenancySpec
{
    /** Declared tenant count (trace generation + reporting hint). */
    int tenants = 1;
    /** Per-tenant scheduler weights; empty = all 1.0. */
    std::vector<double> weights;
    /** Per-tenant scale on the global TTFT SLO; empty = all 1.0. */
    std::vector<double> sloMultipliers;
    /** DRR quantum in prefill tokens (scaled by the tenant weight). */
    std::int64_t drrQuantumTokens = 512;

    /** Weight for `tenant`, defaulting to 1.0 beyond the table. */
    double weightFor(int tenant) const;
    /** SLO scale for `tenant`, defaulting to 1.0 beyond the table. */
    double sloMultiplierFor(int tenant) const;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("tenants", &TenancySpec::tenants, sim::positive());
        // Element-wise: every weight and scale divides or multiplies.
        v.field("weights", &TenancySpec::weights, sim::positive());
        v.field("slo_multipliers", &TenancySpec::sloMultipliers,
                sim::positive());
        // The per-round DRR credit in prefill tokens.
        v.field("drr_quantum_tokens", &TenancySpec::drrQuantumTokens,
                sim::positive());
    }
};

/** Deployment axis: data-parallel replicas behind a global router. */
struct ClusterSpec
{
    /** Data-parallel replicas (1 = single engine). */
    int replicas = 1;
    /**
     * Per-replica engine overrides for heterogeneous fleets, in
     * replica order. Empty (the default) stamps every replica from
     * SystemSpec::engine; non-empty must have exactly `replicas`
     * entries (validate() enforces it) and replica i is built from
     * entry i. Autoscale scale-ups beyond the list fall back to
     * SystemSpec::engine. Populate by hand, via
     * SystemSpec::withFleet(), or from spec JSON ("cluster.replicas"
     * as an array of engine overrides, or the "cluster.fleet"
     * shorthand — see src/chameleon/README.md).
     */
    std::vector<serving::EngineConfig> replicaEngines;
    routing::RouterPolicy router =
        routing::RouterPolicy::JoinShortestQueue;
    routing::RouterConfig routerConfig{};
    /** Scale the active replica set at simulation time. */
    bool autoscale = false;
    routing::AutoscalerConfig autoscaler{};

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        // One key for both: an integer count for a homogeneous fleet,
        // or the array of resolved per-replica engines.
        v.field("replicas", &ClusterSpec::replicas,
                &ClusterSpec::replicaEngines, sim::positive());
        v.field("router", &ClusterSpec::router);
        v.field("router_config", &ClusterSpec::routerConfig);
        v.field("autoscale", &ClusterSpec::autoscale);
        v.field("autoscaler", &ClusterSpec::autoscaler);
    }
};

/**
 * Cache-fabric axis: cluster-wide residency directory + peer-to-peer
 * adapter migration (src/fabric/). Off by default — with migration
 * off and no directory-backed router the Runner never constructs a
 * fabric, so pre-fabric event streams are preserved byte-for-byte.
 */
struct FabricSpec
{
    /** Which cluster reshapes trigger peer migration. */
    fabric::MigrationPolicy migration = fabric::MigrationPolicy::Off;
    /** Peer-link preset migrations travel over. */
    fabric::TopologyKind topology = fabric::TopologyKind::PciePeer;
    /** Hot adapters considered per migration trigger. */
    std::size_t topK = 4;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("migration", &FabricSpec::migration);
        v.field("topology", &FabricSpec::topology);
        v.field("top_k", &FabricSpec::topK, sim::positive());
    }

    /** Does this axis alone require a fabric? */
    bool enabled() const
    {
        return migration != fabric::MigrationPolicy::Off;
    }
};

/**
 * Are the engine's model and GPU chosen? The presets leave both
 * default-constructed; validate() checks only chosen hardware, and
 * the Runner refuses to run without it.
 */
bool hasHardware(const serving::EngineConfig &engine);

/**
 * A complete, declarative description of one serving system. Every
 * axis is independent: any eviction policy under any scheduler, any
 * combination cluster-deployed. Build one from scratch, from a preset
 * (presets::chameleon()), or by name through the SystemRegistry
 * ("chameleon+gdsf+prefetch").
 */
struct SystemSpec
{
    /** Display/registry name; composed lookups carry their grammar. */
    std::string name = "custom";

    /** Hardware + base model (the engine axis is shared wiring). */
    serving::EngineConfig engine{};

    SchedulerSpec scheduler{};
    AdapterSpec adapters{};
    PredictorSpec predictor{};
    ClusterSpec cluster{};
    TenancySpec tenancy{};
    FabricSpec fabric{};

    ReservationPolicy reservation = ReservationPolicy::Auto;

    /** Chunked prefill (Sarathi [1]); tokens per chunk when enabled. */
    bool chunkedPrefill = false;
    std::int64_t chunkTokens = 64;

    // --- fluent helpers for composing variants ---
    SystemSpec &named(std::string n);
    SystemSpec &withScheduler(SchedulerPolicy p);
    SystemSpec &withEviction(EvictionKind e);
    SystemSpec &withPrefetch(std::size_t topK = 8);
    SystemSpec &withReplicas(int replicas,
                             routing::RouterPolicy router =
                                 routing::RouterPolicy::JoinShortestQueue);
    /**
     * Deploy a heterogeneous fleet: one replica per GPU in `gpus`,
     * each built from the current `engine` with that GPU swapped in
     * (set engine.model and shared knobs first). Sets
     * cluster.replicas and cluster.replicaEngines; pairs with
     * model::tryFleetByName for "a100x2+a40x2"-style presets.
     */
    SystemSpec &withFleet(const std::vector<model::GpuSpec> &gpus,
                          routing::RouterPolicy router =
                              routing::RouterPolicy::JoinShortestQueue);

    /**
     * The engine configuration replica `replica` is built from:
     * cluster.replicaEngines[replica] when the fleet is heterogeneous
     * (falling back to `engine` for autoscaled replicas beyond the
     * list), `engine` otherwise.
     */
    const serving::EngineConfig &resolvedEngine(std::size_t replica) const;

    /**
     * Does the run need a cache fabric? True when migration is on or
     * the router needs the residency directory (affinity-dir).
     */
    bool fabricEnabled() const
    {
        return fabric.enabled() ||
               cluster.router ==
                   routing::RouterPolicy::AdapterAffinityDirectory;
    }

    /**
     * The boundary every spec passes before it runs: one actionable
     * message per problem (empty = valid). It reports each member
     * outside the domain its field list declares (sim::checkDomains),
     * then the rules that span several members. Runner construction
     * runs this and fails fast with the joined messages.
     */
    std::vector<std::string> validate() const;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("name", &SystemSpec::name);
        v.field("engine", &SystemSpec::engine);
        v.field("scheduler", &SystemSpec::scheduler);
        v.field("adapters", &SystemSpec::adapters);
        v.field("predictor", &SystemSpec::predictor);
        v.field("cluster", &SystemSpec::cluster);
        v.field("tenancy", &SystemSpec::tenancy);
        v.field("fabric", &SystemSpec::fabric);
        v.field("reservation", &SystemSpec::reservation);
        v.field("chunked_prefill", &SystemSpec::chunkedPrefill);
        v.field("chunk_tokens", &SystemSpec::chunkTokens, sim::positive());
    }
};

/**
 * Field-wise equality over every axis and knob (name included), so
 * JSON round-trip tests can assert spec equivalence directly instead
 * of comparing re-printed strings.
 */
inline bool operator==(const PredictorSpec &a, const PredictorSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const SchedulerSpec &a, const SchedulerSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const AdapterSpec &a, const AdapterSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const ClusterSpec &a, const ClusterSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const TenancySpec &a, const TenancySpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const FabricSpec &a, const FabricSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator==(const SystemSpec &a, const SystemSpec &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator!=(const PredictorSpec &a, const PredictorSpec &b)
{
    return !(a == b);
}
inline bool operator!=(const SchedulerSpec &a, const SchedulerSpec &b)
{
    return !(a == b);
}
inline bool operator!=(const AdapterSpec &a, const AdapterSpec &b)
{
    return !(a == b);
}
inline bool operator!=(const ClusterSpec &a, const ClusterSpec &b)
{
    return !(a == b);
}
inline bool operator!=(const TenancySpec &a, const TenancySpec &b)
{
    return !(a == b);
}
inline bool operator!=(const FabricSpec &a, const FabricSpec &b)
{
    return !(a == b);
}
inline bool operator!=(const SystemSpec &a, const SystemSpec &b)
{
    return !(a == b);
}

/**
 * The paper's evaluated systems as preset specs (§5.1). Each returns a
 * fresh SystemSpec with engine/predictor left at defaults — callers
 * set hardware (spec.engine.model/gpu) before running. These replace
 * the closed SystemKind enum; the registry exposes them by name.
 */
namespace presets {

SystemSpec slora();              ///< FIFO + fetch/prefetch/discard [49].
SystemSpec sloraSjf();           ///< S-LoRA with the uServe SJF [46].
SystemSpec sloraChunked();       ///< S-LoRA with chunked prefill [1].
SystemSpec chameleonNoCache();   ///< Chameleon scheduler, S-LoRA adapters.
SystemSpec chameleonNoSched();   ///< Chameleon cache, FIFO scheduling.
SystemSpec chameleon();          ///< Full system (§4).
SystemSpec chameleonLru();       ///< Full system, LRU eviction.
SystemSpec chameleonFairShare(); ///< Full system, equal-weight eviction.
SystemSpec chameleonGdsf();      ///< Full system, GDSF eviction (§5.3.3).
SystemSpec chameleonPrefetch();  ///< Full system + predictive prefetch.
SystemSpec chameleonStatic();    ///< Static queues/quotas (Fig. 22).
SystemSpec chameleonOutputOnly();///< WRS = predicted output (Fig. 19).
SystemSpec chameleonDegree1();   ///< Degree-1 WRS (§4.3.1 ablation).

} // namespace presets

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SYSTEM_SPEC_H
