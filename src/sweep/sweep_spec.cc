#include "sweep/sweep_spec.h"

#include <algorithm>
#include <sstream>

#include "chameleon/spec_json.h"
#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "routing/router.h"
#include "simkit/json.h"

namespace chameleon::sweep {

serving::EngineConfig
paperTestbedEngine()
{
    serving::EngineConfig engine;
    engine.model = model::llama7B();
    engine.gpu = model::a40();
    return engine;
}

std::string
SweepSpec::outputPath() const
{
    return output.empty() ? "BENCH_" + name + ".json" : output;
}

namespace {

/** The axis values, or the one-value default when the axis is unset. */
template <typename T>
std::vector<T>
orDefault(const std::vector<T> &axis, T fallback)
{
    return axis.empty() ? std::vector<T>{fallback} : axis;
}

/**
 * The rules on a sweep's own values, shared by sweepFromJson and
 * expandSweep so a SweepSpec built in C++ meets the same ones as a
 * parsed file: the field lists' domains, then the rules across fields.
 * Returns the first problem, naming its JSON key, or "".
 */
std::string
sweepProblem(const SweepSpec &spec)
{
    std::vector<std::string> errors;
    sim::checkDomains(spec, &errors);
    if (!errors.empty())
        return errors.front();
    if (spec.systems.empty() && !spec.grid.base.has_value())
        return "nothing to run; give \"systems\" and/or a \"grid\"";
    if (spec.grid.base.has_value() ? spec.grid.base->empty()
                                   : !spec.grid.axes.empty())
        return "\"grid.base\" must name the system the grid's axes "
               "compose onto";
    if (!spec.fleets.empty() && !spec.replicas.empty()) {
        return "\"fleets\" conflicts with \"replicas\"; a fleet preset "
               "already fixes each cell's replica count";
    }
    if (spec.workload.tenantStorm > 1.0 && spec.workload.tenants < 2) {
        return "\"workload.tenant_storm\" needs \"tenants\" >= 2; a storm "
               "is one tenant bursting against the others";
    }
    for (const double rps : orDefault(spec.loads, 8.0)) {
        const std::string problem = workload::traceLoadProblem(
            cellTraceConfig(spec, rps, spec.seed), "\"loads\" entry",
            "\"workload.duration_s\"");
        if (!problem.empty())
            return problem;
    }
    return "";
}

} // namespace

std::optional<SweepSpec>
sweepFromJson(const std::string &text, std::string *error)
{
    SweepSpec spec; // engine already defaults to the paper testbed
    std::string problem;
    const auto doc = sim::parseJson(text, &problem);
    if (doc.has_value() && core::fieldsFromJson(*doc, "", &spec, &problem))
        problem = sweepProblem(spec);
    if (problem.empty())
        return spec;
    if (error != nullptr)
        *error = "sweep json: " + problem;
    return std::nullopt;
}

workload::TraceGenConfig
cellTraceConfig(const SweepSpec &spec, double rps, std::uint64_t traceSeed)
{
    const SweepWorkload &w = spec.workload;
    workload::TraceGenConfig wl = workload::presetConfig(w.preset);
    wl.rps = rps;
    wl.durationSeconds = w.durationSeconds;
    wl.numAdapters = w.adapters;
    wl.adapterPopularity = w.adapterPopularity.value_or(wl.adapterPopularity);
    wl.burstMultiplier = w.burstMultiplier.value_or(wl.burstMultiplier);
    wl.burstPeriodSeconds =
        w.burstPeriodSeconds.value_or(wl.burstPeriodSeconds);
    wl.burstDurationSeconds =
        w.burstDurationSeconds.value_or(wl.burstDurationSeconds);
    wl.numTenants = w.tenants;
    workload::applyTenantStorm(&wl, w.tenantStorm);
    wl.seed = traceSeed;
    return wl;
}

std::optional<std::vector<SweepCell>>
expandSweep(const SweepSpec &spec, std::string *error)
{
    auto fail = [error](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return std::nullopt;
    };
    if (const std::string problem = sweepProblem(spec); !problem.empty())
        return fail("sweep: " + problem);

    // Resolve every axis before building any cell, so a bad name fails
    // once, naming its axis, rather than per cell.
    //
    // The system axis: explicit names first, then the grid product in
    // row-major order (later axes vary fastest).
    std::vector<std::string> names = spec.systems;
    if (spec.grid.base.has_value()) {
        std::vector<std::string> combos{*spec.grid.base};
        for (const auto &axis : spec.grid.axes) {
            std::vector<std::string> next;
            next.reserve(combos.size() * axis.size());
            for (const auto &prefix : combos) {
                for (const auto &token : axis)
                    next.push_back(prefix + "+" + token);
            }
            combos = std::move(next);
        }
        names.insert(names.end(), combos.begin(), combos.end());
    }
    std::vector<core::SystemSpec> systems;
    for (const auto &name : names) {
        std::string lookupError;
        auto found = core::SystemRegistry::global().find(name, &lookupError);
        if (!found.has_value())
            return fail("sweep system \"" + name + "\": " + lookupError);
        systems.push_back(std::move(*found));
    }

    const std::vector<double> loads = orDefault(spec.loads, 8.0);

    // The deployment axis: either homogeneous replica counts or
    // heterogeneous fleet presets (sweepProblem rejects both at once;
    // a fleet already fixes each cell's replica count and GPU mix).
    struct Deployment
    {
        int replicas = 1;
        std::string fleet;
        std::vector<serving::EngineConfig> engines;
    };
    std::vector<Deployment> deployments;
    for (const auto &name : spec.fleets) {
        std::vector<model::GpuSpec> gpus;
        if (!model::tryFleetByName(name, &gpus)) {
            return fail("sweep fleets: unknown fleet preset \"" + name +
                        "\"; expected " + model::fleetGrammarHelp());
        }
        deployments.push_back({static_cast<int>(gpus.size()), name,
                               serving::fleetEngines(spec.engine, gpus)});
    }
    if (spec.fleets.empty()) {
        for (const int count : orDefault(spec.replicas, 1))
            deployments.push_back({count, "", {}});
    }

    const auto routers =
        orDefault(spec.routers, routing::RouterPolicy::JoinShortestQueue);
    const auto migrations =
        orDefault(spec.migrations, fabric::MigrationPolicy::Off);
    const auto topologies =
        orDefault(spec.topologies, fabric::TopologyKind::PciePeer);
    const std::vector<bool> autoscales = orDefault(spec.autoscale, false);
    const std::vector<bool> sloAdmissions =
        orDefault(spec.sloAdmission, false);

    // One walk over the product: the flat index, decomposed mixed-radix,
    // gives each axis its value; the system axis varies slowest and the
    // topology axis fastest.
    enum Axis
    {
        kSystem, kLoad, kDeployment, kRouter, kAutoscale, kSloAdmission,
        kMigration, kTopology, kAxes
    };
    const std::size_t radix[kAxes] = {
        systems.size(),    loads.size(),      deployments.size(),
        routers.size(),    autoscales.size(), sloAdmissions.size(),
        migrations.size(), topologies.size()};
    std::size_t cellCount = 1;
    for (const std::size_t n : radix)
        cellCount *= n;

    std::vector<SweepCell> cells;
    cells.reserve(cellCount);
    // Cells at the same load (and replica count, when rps_per_replica
    // scales the trace) share one trace so systems compare on identical
    // arrivals; key -> index into the runner's trace table.
    std::vector<std::pair<double, std::uint64_t>> traceKeys;
    for (std::size_t flat = 0; flat < cellCount; ++flat) {
        std::size_t at[kAxes];
        for (std::size_t axis = kAxes, rest = flat; axis-- > 0;) {
            at[axis] = rest % radix[axis];
            rest /= radix[axis];
        }
        const Deployment &deployment = deployments[at[kDeployment]];

        SweepCell cell;
        cell.system = names[at[kSystem]];
        cell.fleet = deployment.fleet;
        cell.rps = spec.rpsPerReplica ? loads[at[kLoad]] * deployment.replicas
                                      : loads[at[kLoad]];
        cell.traceSeed = spec.seed + static_cast<std::uint64_t>(at[kLoad]);

        core::SystemSpec &s = cell.spec;
        s = systems[at[kSystem]];
        s.engine = spec.engine;
        s.predictor = spec.predictor;
        s.tenancy.tenants = spec.workload.tenants;
        s.cluster.replicas = deployment.replicas;
        s.cluster.replicaEngines = deployment.engines;
        s.cluster.router = routers[at[kRouter]];
        s.cluster.routerConfig.seed = spec.seed;
        s.cluster.routerConfig.sloAdmission = sloAdmissions[at[kSloAdmission]];
        s.cluster.autoscale = autoscales[at[kAutoscale]];
        if (s.cluster.autoscale)
            s.cluster.autoscaler = spec.autoscaler;
        s.fabric = spec.fabric;
        s.fabric.migration = migrations[at[kMigration]];
        s.fabric.topology = topologies[at[kTopology]];

        auto problems = s.validate();
        const std::string load = workload::traceLoadProblem(
            cellTraceConfig(spec, cell.rps, cell.traceSeed), "rps",
            "\"workload.duration_s\"");
        if (!load.empty())
            problems.push_back(load);
        if (!problems.empty()) {
            std::ostringstream os;
            os << "sweep cell \"" << cell.system << "\" (rps " << cell.rps
               << ", replicas " << s.cluster.replicas;
            if (!cell.fleet.empty())
                os << ", fleet " << cell.fleet;
            os << ", router " << routing::routerPolicyName(s.cluster.router);
            if (s.cluster.autoscale)
                os << ", autoscale";
            if (s.cluster.routerConfig.sloAdmission)
                os << ", slo-admission";
            if (s.fabric.migration != fabric::MigrationPolicy::Off)
                os << ", migration "
                   << fabric::migrationPolicyName(s.fabric.migration);
            os << ") is invalid:";
            for (const auto &p : problems)
                os << "\n  - " << p;
            return fail(os.str());
        }

        const std::pair<double, std::uint64_t> key{cell.rps, cell.traceSeed};
        const auto it = std::find(traceKeys.begin(), traceKeys.end(), key);
        cell.traceIndex = static_cast<std::size_t>(it - traceKeys.begin());
        if (it == traceKeys.end())
            traceKeys.push_back(key);
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace chameleon::sweep
