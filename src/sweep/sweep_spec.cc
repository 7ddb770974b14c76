#include "sweep/sweep_spec.h"

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

bool
stringList(sim::JsonObjectReader &r, const std::string &key,
           std::vector<std::string> *out, bool allowEmpty = true)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, "expects an array of strings");
    if (!allowEmpty && v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        if (!item.isString())
            return r.fail(key, "expects an array of strings");
        out->push_back(item.asString());
    }
    return true;
}

bool
doubleList(sim::JsonObjectReader &r, const std::string &key,
           std::vector<double> *out)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, "expects an array of numbers");
    if (v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        if (!item.isNumber())
            return r.fail(key, "expects an array of numbers");
        out->push_back(item.asNumber());
    }
    return true;
}

bool
intList(sim::JsonObjectReader &r, const std::string &key,
        std::vector<int> *out)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, "expects an array of integers");
    if (v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        if (!item.isNumber() || !item.isIntegral() ||
            item.isUnsignedIntegral())
            return r.fail(key, "expects an array of integers");
        if (item.asInt() < std::numeric_limits<int>::min() ||
            item.asInt() > std::numeric_limits<int>::max())
            return r.fail(key, "has an entry out of 32-bit range");
        out->push_back(static_cast<int>(item.asInt()));
    }
    return true;
}

bool
boolList(sim::JsonObjectReader &r, const std::string &key,
         std::vector<bool> *out)
{
    const JsonValue *v = r.child(key);
    if (v == nullptr)
        return r.ok();
    if (!v->isArray())
        return r.fail(key, "expects an array of booleans");
    if (v->items().empty())
        return r.fail(key, "must not be an empty array (omit the key "
                           "to use the default)");
    out->clear();
    for (const auto &item : v->items()) {
        if (!item.isBool())
            return r.fail(key, "expects an array of booleans");
        out->push_back(item.asBool());
    }
    return true;
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
    if (out->preset != "splitwise" && out->preset != "wildchat" &&
        out->preset != "lmsys") {
        return r.fail("preset", "unknown value \"" + out->preset +
                                    "\"; known: splitwise, wildchat, "
                                    "lmsys");
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

/** Resolve an axis of enum names through the enum's name table; an
 * unknown name fails naming the axis and listing the valid options. */
template <typename Enum>
bool
resolveNames(const std::vector<std::string> &names, const char *axis,
             const char *noun,
             std::vector<std::pair<std::string, Enum>> *out,
             std::string *error)
{
    for (const auto &name : names) {
        Enum value{};
        if (!sim::enumByName(name, &value)) {
            if (error != nullptr)
                *error = std::string("sweep ") + axis + ": unknown " +
                         noun + " \"" + name +
                         "\"; known: " + sim::enumNames<Enum>();
            return false;
        }
        out->emplace_back(name, value);
    }
    return true;
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
    stringList(r, "systems", &spec.systems);
    if (const JsonValue *g = r.child("grid")) {
        if (!gridFromJson(*g, &spec, error))
            return failure();
    }
    doubleList(r, "loads", &spec.loads);
    r.getBool("rps_per_replica", &spec.rpsPerReplica);
    intList(r, "replicas", &spec.replicas);
    stringList(r, "fleets", &spec.fleets,
               /*allowEmpty=*/false);
    stringList(r, "routers", &spec.routers,
               /*allowEmpty=*/false);
    if (!boolList(r, "autoscale", &spec.autoscale))
        return failure();
    if (const JsonValue *a = r.child("autoscaler")) {
        if (!core::autoscalerFromJson(*a, "autoscaler", &spec.autoscaler,
                                      error))
            return failure();
    }
    if (!boolList(r, "slo_admission", &spec.sloAdmission))
        return failure();
    stringList(r, "migrations", &spec.migrations,
               /*allowEmpty=*/false);
    stringList(r, "topologies", &spec.topologies,
               /*allowEmpty=*/false);
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
    workload::TraceGenConfig wl;
    if (spec.workload.preset == "wildchat")
        wl = workload::wildchatLike();
    else if (spec.workload.preset == "lmsys")
        wl = workload::lmsysLike();
    else
        wl = workload::splitwiseLike();
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
    if (spec.workload.tenantStorm > 1.0) {
        // The noisy neighbour: tenant 0 bursts for the middle half of
        // the trace, leaving clean head/tail windows for comparison.
        wl.stormTenant = 0;
        wl.stormMultiplier = spec.workload.tenantStorm;
        wl.stormStartSeconds = 0.25 * wl.durationSeconds;
        wl.stormEndSeconds = 0.75 * wl.durationSeconds;
    }
    wl.seed = traceSeed;
    return wl;
}

std::optional<std::vector<SweepCell>>
expandSweep(const SweepSpec &spec, std::string *error)
{
    const auto &registry = core::SystemRegistry::global();

    // The system axis: explicit names first, then the grid product in
    // row-major order (later axes vary fastest).
    std::vector<std::string> systems = spec.systems;
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
        systems.insert(systems.end(), combos.begin(), combos.end());
    }

    const std::vector<double> loads =
        spec.loads.empty() ? std::vector<double>{8.0} : spec.loads;
    const std::vector<std::string> routerAxis =
        spec.routers.empty() ? std::vector<std::string>{"jsq"}
                             : spec.routers;
    const std::vector<bool> autoscaleAxis =
        spec.autoscale.empty() ? std::vector<bool>{false}
                               : spec.autoscale;
    const std::vector<bool> sloAdmissionAxis =
        spec.sloAdmission.empty() ? std::vector<bool>{false}
                                  : spec.sloAdmission;

    // The fabric axes: migration policies and peer topologies, each
    // resolved through its name table up front so an unknown name
    // fails once with the valid options, not per cell.
    std::vector<std::pair<std::string, fabric::MigrationPolicy>>
        migrationAxis;
    std::vector<std::pair<std::string, fabric::TopologyKind>> topologyAxis;
    if (!resolveNames(spec.migrations.empty()
                          ? std::vector<std::string>{"off"}
                          : spec.migrations,
                      "migrations", "policy", &migrationAxis, error) ||
        !resolveNames(spec.topologies.empty()
                          ? std::vector<std::string>{"pcie"}
                          : spec.topologies,
                      "topologies", "topology", &topologyAxis, error))
        return std::nullopt;

    // The deployment axis: either homogeneous replica counts or
    // heterogeneous fleet presets (mutually exclusive — a fleet
    // already fixes each cell's replica count and GPU mix).
    struct Deployment
    {
        int replicas = 1;
        std::string fleet;
        std::vector<serving::EngineConfig> engines;
    };
    std::vector<Deployment> deployAxis;
    if (!spec.fleets.empty()) {
        if (!spec.replicas.empty()) {
            if (error != nullptr)
                *error = "sweep fleets: conflicts with the \"replicas\" "
                         "axis; a fleet preset already fixes each "
                         "cell's replica count";
            return std::nullopt;
        }
        for (const auto &name : spec.fleets) {
            std::vector<model::GpuSpec> gpus;
            if (!model::tryFleetByName(name, &gpus)) {
                if (error != nullptr)
                    *error = "sweep fleets: unknown fleet preset \"" +
                             name + "\"; expected " +
                             model::fleetGrammarHelp();
                return std::nullopt;
            }
            Deployment deployment;
            deployment.replicas = static_cast<int>(gpus.size());
            deployment.fleet = name;
            deployment.engines = serving::fleetEngines(spec.engine, gpus);
            deployAxis.push_back(std::move(deployment));
        }
    } else {
        const std::vector<int> replicaAxis =
            spec.replicas.empty() ? std::vector<int>{1} : spec.replicas;
        for (const int count : replicaAxis)
            deployAxis.push_back(Deployment{count, "", {}});
    }

    std::vector<SweepCell> cells;
    // Cells at the same load (and replica count, when rps_per_replica
    // scales the trace) share one trace so systems compare on identical
    // arrivals; key -> index into the runner's trace table.
    std::vector<std::pair<double, std::uint64_t>> traceKeys;
    for (const auto &system : systems) {
        std::string lookupError;
        const auto base = registry.find(system, &lookupError);
        if (!base.has_value()) {
            if (error != nullptr)
                *error = "sweep system \"" + system +
                         "\": " + lookupError;
            return std::nullopt;
        }
        for (std::size_t li = 0; li < loads.size(); ++li) {
            for (const Deployment &deployment : deployAxis) {
                const int replicaCount = deployment.replicas;
                for (const auto &router : routerAxis) {
                  for (const bool autoscale : autoscaleAxis) {
                   for (const bool sloAdmission : sloAdmissionAxis) {
                   for (const auto &migration : migrationAxis) {
                    for (const auto &topology : topologyAxis) {
                    SweepCell cell;
                    cell.system = system;
                    cell.replicaCount = replicaCount;
                    cell.fleet = deployment.fleet;
                    cell.router = router;
                    cell.autoscale = autoscale;
                    cell.sloAdmission = sloAdmission;
                    cell.migration = migration.first;
                    cell.topology = topology.first;
                    cell.rps = spec.rpsPerReplica
                                   ? loads[li] * replicaCount
                                   : loads[li];
                    cell.traceSeed =
                        spec.seed + static_cast<std::uint64_t>(li);

                    cell.spec = *base;
                    cell.spec.engine = spec.engine;
                    cell.spec.predictor = spec.predictor;
                    cell.spec.tenancy.tenants = spec.workload.tenants;
                    cell.spec.cluster.replicas = replicaCount;
                    cell.spec.cluster.replicaEngines =
                        deployment.engines;
                    if (!routing::routerPolicyByName(
                            router, &cell.spec.cluster.router)) {
                        if (error != nullptr)
                            *error = "sweep routers: unknown policy \"" +
                                     router + "\"; known: " +
                                     routing::routerPolicyNames();
                        return std::nullopt;
                    }
                    cell.spec.cluster.routerConfig.seed = spec.seed;
                    cell.spec.cluster.routerConfig.sloAdmission =
                        sloAdmission;
                    cell.spec.cluster.autoscale = autoscale;
                    if (autoscale)
                        cell.spec.cluster.autoscaler = spec.autoscaler;
                    cell.spec.fabric = spec.fabric;
                    cell.spec.fabric.migration = migration.second;
                    cell.spec.fabric.topology = topology.second;

                    const auto problems = cell.spec.validate();
                    if (!problems.empty()) {
                        if (error != nullptr) {
                            std::ostringstream os;
                            os << "sweep cell \"" << system << "\" (rps "
                               << cell.rps << ", replicas "
                               << replicaCount;
                            if (!cell.fleet.empty())
                                os << ", fleet " << cell.fleet;
                            os << ", router " << router;
                            if (autoscale)
                                os << ", autoscale";
                            if (sloAdmission)
                                os << ", slo-admission";
                            if (cell.migration != "off")
                                os << ", migration " << cell.migration;
                            os << ") is invalid:";
                            for (const auto &p : problems)
                                os << "\n  - " << p;
                            *error = os.str();
                        }
                        return std::nullopt;
                    }

                    const std::pair<double, std::uint64_t> key{
                        cell.rps, cell.traceSeed};
                    std::size_t index = traceKeys.size();
                    for (std::size_t i = 0; i < traceKeys.size(); ++i) {
                        if (traceKeys[i] == key) {
                            index = i;
                            break;
                        }
                    }
                    if (index == traceKeys.size())
                        traceKeys.push_back(key);
                    cell.traceIndex = index;
                    cells.push_back(std::move(cell));
                    }
                   }
                   }
                  }
                }
            }
        }
    }
    return cells;
}

} // namespace chameleon::sweep
