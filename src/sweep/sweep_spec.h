/**
 * @file
 * SweepSpec: a declarative grid of scenarios over the system registry.
 *
 * The paper's evaluation is a grid — systems x loads x traces x
 * policies. A SweepSpec names one such grid: an explicit list of
 * registry system names, and/or a cross-product built from a base
 * system and axes of registry modifier tokens (the same `base+mod`
 * grammar the CLI accepts), crossed with load (rps), replica-count
 * (or heterogeneous fleet-preset), router, autoscale, SLO-admission,
 * migration and topology axes. expandSweep() resolves it into concrete
 * SweepCells — one fully validated core::SystemSpec per grid cell,
 * which is the cell's only record of its axis values — which the
 * SweepRunner (sweep_runner.h) executes into one consolidated
 * BenchJson.
 *
 * Loaded from JSON (sweepFromJson; grammar documented in
 * src/sweep/README.md):
 *
 *   {
 *     "name": "fig17_policy_grid",
 *     "seed": 42,
 *     "systems": ["slora"],
 *     "grid": {
 *       "base": "chameleon",
 *       "axes": [["paper", "lru", "fairshare", "gdsf"]]
 *     },
 *     "loads": [8.0],
 *     "workload": {"preset": "splitwise", "duration_s": 300,
 *                  "adapters": 200},
 *     "engine": {"workspace_per_gpu": 25769803776}
 *   }
 *
 * Determinism: the trace of load-axis index i is generated with seed
 * `seed + i` (every system at that load runs the identical trace);
 * router sampling streams are seeded with `seed`. Same sweep JSON +
 * seed => identical cells, traces, and BenchJson, asserted by
 * tests/sweep_test.cc.
 */

#ifndef CHAMELEON_SWEEP_SWEEP_SPEC_H
#define CHAMELEON_SWEEP_SWEEP_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/system_spec.h"
#include "workload/trace_gen.h"

namespace chameleon::sweep {

/** The paper testbed's hardware (Llama-7B on an A40): the default
 * engine template of a SweepSpec, for the C++ and JSON paths alike. */
serving::EngineConfig paperTestbedEngine();

/** Workload template shared by every cell (rps comes per cell). */
struct SweepWorkload
{
    workload::TracePreset preset = workload::TracePreset::Splitwise;
    double durationSeconds = 120.0;
    /** Adapter-pool size (0 = base-only workload). */
    int adapters = 100;
    /** Unset keeps the preset's default. */
    std::optional<workload::Popularity> adapterPopularity;
    /**
     * Periodic burstiness overrides (see TraceGenConfig); unset keeps
     * the preset's defaults (splitwise/wildchat ship bursty, §3.1).
     */
    std::optional<double> burstMultiplier;
    std::optional<double> burstPeriodSeconds;
    std::optional<double> burstDurationSeconds;
    /**
     * Tenant axis of the workload: > 1 splits the offered load across
     * this many equal-share tenants (per-tenant arrival processes, see
     * TraceGenConfig). Also stamped onto every cell's
     * spec.tenancy.tenants so WFQ/DRR cells see the declared count.
     */
    int tenants = 1;
    /**
     * Noisy-neighbour storm: tenant 0 bursts to this multiple of its
     * share for the middle half of the trace (1 disables). Requires
     * tenants > 1. Storm cells run under a bounded 30 s drain window
     * (the fig29 convention) so the fairness index measures who gets
     * served while the backlog is contended; a full drain would
     * converge every scheduler to the trace's demand mix.
     */
    double tenantStorm = 1.0;

    /** Every member once, with its sweep-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("preset", &SweepWorkload::preset);
        v.field("duration_s", &SweepWorkload::durationSeconds,
                sim::positive(sim::kMaxSpanSeconds));
        v.field("adapters", &SweepWorkload::adapters, sim::nonNegative());
        v.field("adapter_popularity", &SweepWorkload::adapterPopularity);
        // trace_gen.cc: a multiplier of 1 or a period of 0 disables the
        // bursts (one below 1 would be ignored, not lower the rate), a
        // negative duration makes the base rate negative, and one past
        // the period fills it. The rules mixing them with the load are
        // traceLoadProblem's.
        v.field("burst_multiplier", &SweepWorkload::burstMultiplier,
                sim::within(1.0, sim::kNoBound));
        v.field("burst_period_s", &SweepWorkload::burstPeriodSeconds,
                sim::nonNegative());
        v.field("burst_duration_s", &SweepWorkload::burstDurationSeconds,
                sim::nonNegative());
        v.field("tenants", &SweepWorkload::tenants, sim::positive());
        v.field("tenant_storm", &SweepWorkload::tenantStorm,
                sim::within(1.0, sim::kNoBound));
    }
};

/** A cross-product of registry modifier tokens over one base system. */
struct SweepGrid
{
    /** Registry name the tokens compose onto; unset disables the grid. */
    std::optional<std::string> base;
    /** One modifier-token list per axis; cells take one from each. */
    std::vector<std::vector<std::string>> axes;

    /** Every member once, with its sweep-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        v.field("base", &SweepGrid::base);
        v.axis("axes", &SweepGrid::axes);
    }
};

/** The sweep description; see file comment for the JSON grammar. */
struct SweepSpec
{
    std::string name = "sweep";

    /** Explicit registry names ("chameleon", "slora+sjf", ...). */
    std::vector<std::string> systems;
    SweepGrid grid;

    /** Load axis (rps); empty means one load at 8.0. */
    std::vector<double> loads;
    /** Multiply each load by the cell's replica count (fig26-style). */
    bool rpsPerReplica = false;
    /** Replica-count axis; empty means {1}. */
    std::vector<int> replicas;
    /**
     * Heterogeneous-fleet axis: model::tryFleetByName presets
     * ("a40x4", "a100x2+a40x2", ...). Each entry becomes one axis
     * value whose cells deploy that GPU mix (per-replica engines =
     * the engine template with the preset's GPUs; replica count = the
     * fleet size). Mutually exclusive with the `replicas` axis — a
     * fleet already fixes the count. Empty = homogeneous sweep.
     */
    std::vector<std::string> fleets;
    /** Router axis; empty = jsq. */
    std::vector<routing::RouterPolicy> routers;
    /**
     * Autoscale axis: each entry is one axis value (cells with `true`
     * enable predictor-driven autoscaling under the `autoscaler`
     * template below). Empty = {false} — a fixed-size sweep. The
     * fig26 autoscale on/off section is exactly `[false, true]`.
     */
    std::vector<bool> autoscale;
    /** Autoscaler template stamped onto every autoscaling cell. */
    routing::AutoscalerConfig autoscaler{};
    /**
     * SLO-admission axis: cells with `true` wrap the router so
     * SLO-critical tenants (tenancy slo multiplier < 1) steer to the
     * fastest effective-rate replica. Empty = {false}.
     */
    std::vector<bool> sloAdmission;
    /**
     * Cache-fabric migration axis; empty = {off} — no fabric unless
     * the router axis asks for affinity-dir. Each entry becomes one
     * axis value stamped onto spec.fabric.migration.
     */
    std::vector<fabric::MigrationPolicy> migrations;
    /** Peer-topology axis; empty = {pcie}. */
    std::vector<fabric::TopologyKind> topologies;
    /** Fabric template stamped onto every cell (migration/topology
     * come from the axes above). */
    core::FabricSpec fabric{};

    SweepWorkload workload;
    /** Hardware template stamped onto every cell. */
    serving::EngineConfig engine = paperTestbedEngine();
    /** Output-length predictor template stamped onto every cell. */
    core::PredictorSpec predictor;

    /** Master seed: traces derive per-load, routers use it directly. */
    std::uint64_t seed = 42;
    /** Worker threads for the runner (1 = serial). */
    int threads = 1;
    /** BenchJson output path; "" = "BENCH_<name>.json". */
    std::string output;

    /** The resolved output path. */
    std::string outputPath() const;

    /**
     * Every member once, with its sweep-JSON key (simkit/fields.h). An
     * axis given as [] fails; "systems": [] is a grid-only sweep.
     */
    template <typename V>
    static void fields(V &v)
    {
        v.field("name", &SweepSpec::name);
        v.field("systems", &SweepSpec::systems);
        v.field("grid", &SweepSpec::grid);
        v.axis("loads", &SweepSpec::loads, sim::positive());
        v.field("rps_per_replica", &SweepSpec::rpsPerReplica);
        v.axis("replicas", &SweepSpec::replicas, sim::positive());
        v.axis("fleets", &SweepSpec::fleets);
        v.axis("routers", &SweepSpec::routers);
        v.axis("autoscale", &SweepSpec::autoscale);
        v.field("autoscaler", &SweepSpec::autoscaler);
        v.axis("slo_admission", &SweepSpec::sloAdmission);
        v.axis("migrations", &SweepSpec::migrations);
        v.axis("topologies", &SweepSpec::topologies);
        v.field("fabric", &SweepSpec::fabric);
        v.field("workload", &SweepSpec::workload);
        v.field("engine", &SweepSpec::engine);
        v.field("predictor", &SweepSpec::predictor);
        v.seed("seed", &SweepSpec::seed);
        v.field("threads", &SweepSpec::threads, sim::positive());
        v.field("output", &SweepSpec::output);
    }
};

/**
 * One concrete grid cell. Its `spec` is the only record of the
 * deployment, router, autoscale, SLO-admission, migration and
 * topology axis values; the fields beside it are what the spec does
 * not hold.
 */
struct SweepCell
{
    std::string system;
    double rps = 0.0;
    /** Fleet-preset name of the cell ("" on homogeneous sweeps). */
    std::string fleet;
    /** Index of the shared trace this cell runs (SweepRunner). */
    std::size_t traceIndex = 0;
    /** Seed the cell's trace is generated with. */
    std::uint64_t traceSeed = 0;
    core::SystemSpec spec;
};

/**
 * Parse a sweep description from JSON text through its field list
 * (core::fieldsFromJson, the reader core::specFromJson uses), then
 * check its domains (sim::checkDomains) and cross-field rules. Errors
 * name the offending key. The default engine template is the paper
 * testbed (Llama-7B on an A40).
 */
std::optional<SweepSpec> sweepFromJson(const std::string &text,
                                       std::string *error = nullptr);

/**
 * Expand the spec into concrete cells: (systems + grid cross-product)
 * x loads x replicas (or fleets) x routers x autoscale x slo_admission
 * x migrations x topologies, in that order (system slowest, topology
 * fastest). Checks the sweep's own rules (as sweepFromJson does),
 * resolves every system name through the global registry and every
 * fleet through its preset grammar, then validates every cell spec;
 * returns std::nullopt with an actionable message naming the
 * offending key, axis or cell on failure.
 */
std::optional<std::vector<SweepCell>> expandSweep(
    const SweepSpec &spec, std::string *error = nullptr);

/** The trace-generator configuration of load-axis entry `rps`. */
workload::TraceGenConfig cellTraceConfig(const SweepSpec &spec, double rps,
                                         std::uint64_t traceSeed);

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_SWEEP_SPEC_H
