#include "sweep/sweep_spec.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "chameleon/spec_json.h"
#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "routing/router.h"
#include "simkit/enum_table.h"
#include "simkit/json.h"

namespace chameleon::sweep {

using sim::JsonValue;

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

/**
 * Read the optional array `key` into `out`. `take` converts one item
 * and returns nullptr, or the message the item fails with; `expects`
 * is the message for a value that is not an array.
 */
template <typename T, typename Take>
bool
listOf(sim::JsonObjectReader &r, const char *key, const char *expects,
       Take take, std::vector<T> *out, bool allowEmpty = false)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, expects);
    if (!allowEmpty && v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        T value{};
        if (const char *problem = take(item, &value))
            return r.fail(key, problem);
        out->push_back(value);
    }
    return true;
}

constexpr const char *kStrings = "expects an array of strings";
constexpr const char *kNumbers = "expects an array of numbers";
constexpr const char *kIntegers = "expects an array of integers";
constexpr const char *kBooleans = "expects an array of booleans";

const char *
takeString(const JsonValue &item, std::string *out)
{
    if (!item.isString())
        return kStrings;
    *out = item.asString();
    return nullptr;
}

const char *
takeNumber(const JsonValue &item, double *out)
{
    if (!item.isNumber())
        return kNumbers;
    *out = item.asNumber();
    return nullptr;
}

const char *
takeInt(const JsonValue &item, int *out)
{
    if (!item.isNumber() || !item.isIntegral() || item.isUnsignedIntegral())
        return kIntegers;
    if (item.asInt() < std::numeric_limits<int>::min() ||
        item.asInt() > std::numeric_limits<int>::max())
        return "has an entry out of 32-bit range";
    *out = static_cast<int>(item.asInt());
    return nullptr;
}

const char *
takeBool(const JsonValue &item, bool *out)
{
    if (!item.isBool())
        return kBooleans;
    *out = item.asBool();
    return nullptr;
}

bool
workloadFromJson(const JsonValue &v, SweepWorkload *out,
                 std::string *error)
{
    sim::JsonObjectReader r(v, "workload", error);
    r.getString("preset", &out->preset);
    r.getDouble("duration_s", &out->durationSeconds);
    r.getInt("adapters", &out->adapters);
    r.getString("adapter_popularity", &out->adapterPopularity);
    auto getOptDouble = [&r](const char *key,
                             std::optional<double> *slot) {
        const JsonValue *v = r.child(key);
        if (v == nullptr)
            return r.ok();
        if (!v->isNumber())
            return r.fail(key, "expects a number");
        *slot = v->asNumber();
        return true;
    };
    getOptDouble("burst_multiplier", &out->burstMultiplier);
    getOptDouble("burst_period_s", &out->burstPeriodSeconds);
    getOptDouble("burst_duration_s", &out->burstDurationSeconds);
    r.getInt("tenants", &out->tenants);
    r.getDouble("tenant_storm", &out->tenantStorm);
    if (!r.finish())
        return false;
    if (out->tenants < 1) {
        return r.fail("tenants", "must be >= 1 (1 = the anonymous "
                                 "single-tenant default)");
    }
    if (out->tenantStorm > 1.0 && out->tenants < 2) {
        return r.fail("tenant_storm",
                      "needs \"tenants\" >= 2; a storm is one tenant "
                      "bursting against the others");
    }
    workload::TracePreset preset;
    if (!sim::enumByName(out->preset, &preset)) {
        return r.fail("preset", "unknown value \"" + out->preset +
                                    "\"; known: " +
                                    sim::enumNames<workload::TracePreset>());
    }
    if (!out->adapterPopularity.empty() &&
        out->adapterPopularity != "uniform" &&
        out->adapterPopularity != "powerlaw") {
        return r.fail("adapter_popularity",
                      "unknown value \"" + out->adapterPopularity +
                          "\"; known: uniform, powerlaw");
    }
    return true;
}

bool
gridFromJson(const JsonValue &v, SweepSpec *out, std::string *error)
{
    sim::JsonObjectReader r(v, "grid", error);
    r.getString("base", &out->gridBase);
    const JsonValue *axes = r.child("axes");
    if (axes != nullptr) {
        if (!axes->isArray())
            return r.fail("axes", "expects an array of token arrays");
        for (std::size_t i = 0; i < axes->items().size(); ++i) {
            const JsonValue &axis = axes->items()[i];
            std::ostringstream key;
            key << "axes[" << i << "]";
            if (!axis.isArray() || axis.items().empty())
                return r.fail(key.str(),
                              "expects a non-empty array of modifier "
                              "tokens");
            std::vector<std::string> tokens;
            for (const auto &token : axis.items()) {
                if (!token.isString())
                    return r.fail(key.str(),
                                  "expects modifier-token strings");
                tokens.push_back(token.asString());
            }
            out->gridAxes.push_back(std::move(tokens));
        }
    }
    if (!r.finish())
        return false;
    if (out->gridBase.empty())
        return r.fail("base", "is required when \"grid\" is present");
    return true;
}

/** Resolve an axis of enum names through the enum's name table (an
 * empty axis is `fallback` alone); an unknown name fails naming the
 * axis and listing the valid options. */
template <typename Enum>
bool
resolveNames(const std::vector<std::string> &names, Enum fallback,
             const char *axis, const char *noun, std::vector<Enum> *out,
             std::string *error)
{
    if (names.empty())
        out->push_back(fallback);
    for (const auto &name : names) {
        Enum value{};
        if (!sim::enumByName(name, &value)) {
            if (error != nullptr)
                *error = std::string("sweep ") + axis + ": unknown " +
                         noun + " \"" + name +
                         "\"; known: " + sim::enumNames<Enum>();
            return false;
        }
        out->push_back(value);
    }
    return true;
}

/** The axis values, or the one-value default when the axis is unset. */
template <typename T>
std::vector<T>
orDefault(const std::vector<T> &axis, T fallback)
{
    return axis.empty() ? std::vector<T>{fallback} : axis;
}

} // namespace

std::optional<SweepSpec>
sweepFromJson(const std::string &text, std::string *error)
{
    std::string parseError;
    auto doc = sim::parseJson(text, &parseError);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "sweep json: " + parseError;
        return std::nullopt;
    }

    SweepSpec spec; // engine already defaults to the paper testbed

    auto failure = [error]() -> std::optional<SweepSpec> {
        if (error != nullptr && error->rfind("sweep json:", 0) != 0)
            *error = "sweep json: " + *error;
        return std::nullopt;
    };

    sim::JsonObjectReader r(*doc, "", error);
    r.getString("name", &spec.name);
    listOf(r, "systems", kStrings, takeString, &spec.systems,
           /*allowEmpty=*/true);
    if (const JsonValue *g = r.child("grid")) {
        if (!gridFromJson(*g, &spec, error))
            return failure();
    }
    listOf(r, "loads", kNumbers, takeNumber, &spec.loads);
    r.getBool("rps_per_replica", &spec.rpsPerReplica);
    listOf(r, "replicas", kIntegers, takeInt, &spec.replicas);
    listOf(r, "fleets", kStrings, takeString, &spec.fleets);
    listOf(r, "routers", kStrings, takeString, &spec.routers);
    listOf(r, "autoscale", kBooleans, takeBool, &spec.autoscale);
    if (const JsonValue *a = r.child("autoscaler")) {
        if (!core::autoscalerFromJson(*a, "autoscaler", &spec.autoscaler,
                                      error))
            return failure();
    }
    listOf(r, "slo_admission", kBooleans, takeBool, &spec.sloAdmission);
    listOf(r, "migrations", kStrings, takeString, &spec.migrations);
    listOf(r, "topologies", kStrings, takeString, &spec.topologies);
    if (const JsonValue *f = r.child("fabric")) {
        if (!core::fabricFromJson(*f, "fabric", &spec.fabric, error))
            return failure();
    }
    if (const JsonValue *w = r.child("workload")) {
        if (!workloadFromJson(*w, &spec.workload, error))
            return failure();
    }
    if (const JsonValue *e = r.child("engine")) {
        if (!core::engineFromJson(*e, "engine", &spec.engine, error))
            return failure();
    }
    if (const JsonValue *p = r.child("predictor")) {
        if (!core::predictorFromJson(*p, "predictor", &spec.predictor,
                                     error))
            return failure();
    }
    r.getUint64("seed", &spec.seed);
    r.getInt("threads", &spec.threads);
    r.getString("output", &spec.output);
    if (!r.finish())
        return failure();

    if (spec.systems.empty() && spec.gridBase.empty()) {
        if (error != nullptr)
            *error = "sweep json: nothing to run; give \"systems\" "
                     "and/or a \"grid\"";
        return std::nullopt;
    }
    if (!spec.fleets.empty() && !spec.replicas.empty()) {
        if (error != nullptr)
            *error = "sweep json: \"fleets\" conflicts with "
                     "\"replicas\"; a fleet preset already fixes each "
                     "cell's replica count";
        return std::nullopt;
    }
    if (spec.threads < 1) {
        if (error != nullptr)
            *error = "sweep json: \"threads\" must be >= 1";
        return std::nullopt;
    }
    for (const double rps : spec.loads) {
        if (rps <= 0.0) {
            if (error != nullptr)
                *error = "sweep json: \"loads\" entries must be > 0";
            return std::nullopt;
        }
    }
    if (spec.workload.durationSeconds <= 0.0) {
        if (error != nullptr)
            *error = "sweep json: \"workload.duration_s\" must be > 0";
        return std::nullopt;
    }
    if (spec.workload.adapters < 0) {
        // A negative count would silently run base-only and misread
        // as a valid sweep with empty cache columns.
        if (error != nullptr)
            *error = "sweep json: \"workload.adapters\" must be >= 0 "
                     "(0 = base-only workload)";
        return std::nullopt;
    }
    return spec;
}

workload::TraceGenConfig
cellTraceConfig(const SweepSpec &spec, double rps, std::uint64_t traceSeed)
{
    // An unknown preset (possible only from C++) keeps splitwise.
    workload::TracePreset preset = workload::TracePreset::Splitwise;
    sim::enumByName(spec.workload.preset, &preset);
    workload::TraceGenConfig wl = workload::presetConfig(preset);
    wl.rps = rps;
    wl.durationSeconds = spec.workload.durationSeconds;
    wl.numAdapters = spec.workload.adapters;
    if (spec.workload.adapterPopularity == "uniform")
        wl.adapterPopularity = workload::Popularity::Uniform;
    else if (spec.workload.adapterPopularity == "powerlaw")
        wl.adapterPopularity = workload::Popularity::PowerLaw;
    if (spec.workload.burstMultiplier.has_value())
        wl.burstMultiplier = *spec.workload.burstMultiplier;
    if (spec.workload.burstPeriodSeconds.has_value())
        wl.burstPeriodSeconds = *spec.workload.burstPeriodSeconds;
    if (spec.workload.burstDurationSeconds.has_value())
        wl.burstDurationSeconds = *spec.workload.burstDurationSeconds;
    wl.numTenants = spec.workload.tenants;
    workload::applyTenantStorm(&wl, spec.workload.tenantStorm);
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

    // Resolve every axis before building any cell, so a bad name fails
    // once, naming its axis, rather than per cell.
    //
    // The system axis: explicit names first, then the grid product in
    // row-major order (later axes vary fastest).
    std::vector<std::string> names = spec.systems;
    if (!spec.gridBase.empty()) {
        std::vector<std::string> combos{spec.gridBase};
        for (const auto &axis : spec.gridAxes) {
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
    // heterogeneous fleet presets (sweepFromJson rejects both at once;
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

    std::vector<routing::RouterPolicy> routers;
    std::vector<fabric::MigrationPolicy> migrations;
    std::vector<fabric::TopologyKind> topologies;
    if (!resolveNames(spec.routers, routing::RouterPolicy::JoinShortestQueue,
                      "routers", "policy", &routers, error) ||
        !resolveNames(spec.migrations, fabric::MigrationPolicy::Off,
                      "migrations", "policy", &migrations, error) ||
        !resolveNames(spec.topologies, fabric::TopologyKind::PciePeer,
                      "topologies", "topology", &topologies, error))
        return std::nullopt;
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

        const auto problems = s.validate();
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
