/**
 * @file
 * chameleon_sim — the command-line driver for the simulator.
 *
 * Builds a serving system from flags, generates (or loads) a trace,
 * runs it, and prints a full report: latency percentiles, throughput,
 * cache/PCIe statistics, and GPU utilisation. Optionally exports
 * per-request records and the trace itself as CSV for offline
 * analysis.
 *
 * --system accepts any registered name (see --list-systems) or a
 * composed variant like "chameleon+gdsf+prefetch" — base system plus
 * one modifier per policy axis.
 *
 * Examples:
 *   chameleon_sim --list-systems
 *   chameleon_sim --system chameleon --rps 9 --duration 300
 *   chameleon_sim --system slora+sjf --model llama-13b --gpu a100 \
 *       --mem-gib 80 --adapters 200 --records-csv out.csv
 *   chameleon_sim --system chameleon-gdsf --replicas 4 --router affinity \
 *       --rps 34 --autoscale
 *   chameleon_sim --system chameleon --fleet a100x2+a40x2 --router p2c \
 *       --rps 30
 *   chameleon_sim --system chameleon --fleet a100-48x1+a40x1 --autoscale \
 *       --autoscale-boot-ms 8000 --autoscale-up-policy fastest \
 *       --autoscale-alpha 0.2 --rps 24
 *   chameleon_sim --system chameleon --replicas 4 --router affinity \
 *       --rps 30 --trace-out trace.json --metrics-out metrics.json
 *   chameleon_sim --system chameleon+wfq --tenants 4 --tenant-storm 8 \
 *       --rps 12
 *
 * In --system mode, --seed drives the trace generator, the
 * output-length predictor, and the router's sampling stream, so a
 * cluster run is reproducible from its command line alone.
 *
 * Any run is also reproducible from a file: --dump-config prints the
 * fully resolved SystemSpec as JSON and exits, and --config file.json
 * ("-" = stdin) loads a spec from such a file instead of --system +
 * hardware flags. `chameleon_sim --dump-config | chameleon_sim
 * --config -` re-runs the identical system. In --config mode the
 * predictor and router seeds are the file's (that is what makes the
 * round-trip bit-identical); --seed, --rps, --duration, --adapters,
 * and --workload shape only the generated trace.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "fabric/cache_fabric.h"
#include "tool_io.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "routing/router.h"
#include "serving/slo.h"
#include "simkit/enum_table.h"
#include "simkit/flags.h"
#include "simkit/log.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

void
listSystems()
{
    const auto &registry = core::SystemRegistry::global();
    std::printf("registered systems:\n");
    for (const auto &name : registry.names()) {
        std::printf("  %-24s %s\n", name.c_str(),
                    registry.description(name).c_str());
    }
    std::printf("\ncompose variants as base+modifier, e.g. "
                "\"chameleon+gdsf+prefetch\"; modifiers:\n ");
    for (const auto &mod : core::SystemRegistry::modifierHelp())
        std::printf(" %s", mod.c_str());
    std::printf("\n");
}

/** Largest value an int-typed spec field or count can take. */
constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();

/**
 * Reject bad user input at the boundary: print `message` (which names
 * the flag) and exit 2, the code for every usage error. CHM_CHECK is
 * for internal invariants only and must not see user input.
 */
void
require(bool ok, const std::string &message)
{
    if (!ok) {
        std::fprintf(stderr, "%s\n", message.c_str());
        std::exit(2);
    }
}

/** Parse an enum-valued flag through its name table; exit 2 if unknown. */
template <typename Enum>
void
parseEnumFlag(const char *flag, const std::string &value, Enum *out)
{
    require(sim::enumByName(value, out),
            "unknown --" + std::string(flag) + " '" + value +
                "'; known: " + sim::enumNames<Enum>());
}

void
writeRecordsCsv(const std::string &path,
                const std::vector<serving::RequestRecord> &records)
{
    std::ofstream out(path);
    require(out.good(), "cannot open --records-csv file " + path);
    out << "id,arrival_s,input,output,adapter,rank,ttft_s,e2e_s,"
           "queue_delay_s,adapter_stall_ms,wrs,queue,squashes,preempts\n";
    for (const auto &r : records) {
        out << r.id << ',' << sim::toSeconds(r.arrival) << ','
            << r.inputTokens << ',' << r.outputTokens << ',' << r.adapter
            << ',' << r.rank << ',' << sim::toSeconds(r.ttft) << ','
            << sim::toSeconds(r.e2e) << ',' << sim::toSeconds(r.queueDelay)
            << ',' << sim::toMillis(r.adapterStall) << ',' << r.wrs << ','
            << r.queueIndex << ',' << r.squashCount << ','
            << r.preemptCount << '\n';
    }
}

/** Was --name (or --name=value) given explicitly on the command line? */
bool
flagGiven(int argc, char **argv, const std::string &name)
{
    const std::string plain = "--" + name;
    const std::string assign = plain + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == plain || arg.rfind(assign, 0) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::FlagSet flags("chameleon_sim");
    auto *system = flags.addString("system", "chameleon",
                                   "serving system (see --list-systems)");
    auto *config_file = flags.addString(
        "config", "",
        "load the system spec from a JSON file (\"-\" = stdin) instead "
        "of --system + hardware flags");
    auto *dump_config = flags.addBool(
        "dump-config", false,
        "print the resolved system spec as JSON and exit");
    auto *list_systems = flags.addBool(
        "list-systems", false,
        "print the system registry (names + composition grammar)");
    auto *model_name = flags.addString("model", "llama-7b",
                                       "base model preset");
    auto *gpu_name = flags.addString("gpu", "a40", "gpu preset: a40|a100");
    auto *mem_gib = flags.addInt("mem-gib", 0,
                                 "a100 memory GiB (24/48/80; 0 = default)");
    auto *tp = flags.addInt("tp", 1, "tensor-parallel degree");
    auto *adapters = flags.addInt("adapters", 100,
                                  "number of LoRA adapters (0 = base only)");
    auto *rps = flags.addDouble("rps", 8.0, "offered load, requests/s");
    auto *duration = flags.addDouble("duration", 300.0,
                                     "trace duration, seconds");
    auto *seed = flags.addInt("seed", 42, "workload seed");
    auto *workload_name = flags.addString(
        "workload", "splitwise", "trace preset: splitwise|wildchat|lmsys");
    auto *tenants = flags.addInt(
        "tenants", 1,
        "split the workload across this many equal-share tenants "
        "(wfq/drr schedulers weight them; 1 = anonymous single tenant)");
    auto *tenant_storm = flags.addDouble(
        "tenant-storm", 1.0,
        "noisy neighbour: tenant 0 bursts to this multiple of its share "
        "for the middle half of the trace (requires > 1 tenant)");
    auto *slo_multiplier = flags.addDouble(
        "slo-multiplier", 5.0,
        "TTFT SLO as a multiple of the mean isolated latency, within "
        "[0, 9000] (0 disables SLO reporting; a mean isolated latency is "
        "at most one span, and 9000 spans still fit the clock)");
    auto *acc = flags.addDouble("predictor-acc", 0.8,
                                "output-length predictor accuracy");
    auto *replicas = flags.addInt("replicas", 1,
                                  "data-parallel engine replicas");
    auto *fleet = flags.addString(
        "fleet", "",
        "heterogeneous replica fleet, e.g. a40x4 or a100x2+a40x2 "
        "(defines the replica count; per-replica GPUs override --gpu)");
    auto *router = flags.addString(
        "router", "jsq",
        std::string("cluster dispatch policy: ") +
            routing::routerPolicyNames());
    auto *migration = flags.addString(
        "migration", "off",
        std::string("cache-fabric peer migration triggers: ") +
            fabric::migrationPolicyNames());
    auto *topology = flags.addString(
        "topology", "pcie",
        std::string("peer-link preset migrations travel over: ") +
            fabric::topologyNames());
    auto *fabric_top_k = flags.addInt(
        "fabric-top-k", 4,
        "hot adapters considered per migration trigger");
    auto *autoscale = flags.addBool(
        "autoscale", false, "enable predictor-driven replica autoscaling");
    auto *min_replicas = flags.addInt("min-replicas", 1,
                                      "autoscaler lower bound");
    auto *max_replicas = flags.addInt("max-replicas", 8,
                                      "autoscaler upper bound");
    auto *replica_rps = flags.addDouble(
        "replica-rps", 8.0,
        "service capacity of one base-engine replica for the "
        "autoscaler forecast");
    auto *boot_ms = flags.addDouble(
        "autoscale-boot-ms", 0.0,
        "replica cold-start boot constant, ms (adds the weight-load "
        "time from the cost model; 0 = instant scale-ups)");
    auto *up_policy = flags.addString(
        "autoscale-up-policy", "default",
        std::string("engine config a scale-up instantiates: ") +
            routing::scaleUpPolicyNames());
    auto *measured_alpha = flags.addDouble(
        "autoscale-alpha", 0.0,
        "EWMA weight of measured per-replica service rates blended "
        "into the routing weights (0 = static nominal weights)");
    auto *demand_source = flags.addString(
        "autoscale-demand-source", "nominal",
        std::string("rate estimate behind the autoscaler capacity "
                    "signals: ") +
            routing::demandSourceNames() +
            " (measured needs --autoscale-alpha > 0)");
    auto *boot_horizon = flags.addBool(
        "autoscale-boot-horizon", false,
        "stretch the forecast horizon to at least the next replica's "
        "boot time, so scale-ups land before the forecasted load");
    auto *slo_admission = flags.addBool(
        "slo-admission", false,
        "steer SLO-critical tenants (slo multiplier < 1) to the "
        "fastest effective-rate replica before the routing policy");
    auto *trace_in = flags.addString("trace", "",
                                     "load trace from CSV instead");
    auto *save_trace = flags.addString("save-trace", "",
                                       "write the generated trace as CSV");
    auto *records_csv = flags.addString("records-csv", "",
                                        "write per-request records as CSV");
    auto *trace_out = flags.addString(
        "trace-out", "",
        "write a Chrome trace-event JSON of the run (open in Perfetto "
        "or chrome://tracing)");
    auto *metrics_out = flags.addString(
        "metrics-out", "",
        "write the hierarchical metrics snapshot as JSON");
    auto *log_level = flags.addString(
        "log-level", "warn",
        "stderr log threshold: error|warn|info|debug|trace");
    if (!flags.parse(argc, argv))
        return 2;

    sim::LogLevel level;
    if (!sim::logLevelByName(*log_level, &level)) {
        std::fprintf(stderr, "unknown --log-level '%s'; known: %s\n",
                     log_level->c_str(), sim::logLevelNames());
        return 2;
    }
    sim::setLogLevel(level);

    if (*list_systems) {
        listSystems();
        // Listing alone is a complete command; only continue into a
        // simulation when one was explicitly requested via --system.
        if (!flagGiven(argc, argv, "system"))
            return 0;
        std::printf("\n");
    }

    core::SystemSpec spec;
    if (!config_file->empty()) {
        // The file is the single source of truth for the system; a
        // spec-axis flag beside it would be silently ignored, which
        // would misread as a run of the flagged configuration.
        for (const char *conflicting :
             {"system", "model", "gpu", "mem-gib", "tp", "predictor-acc",
              "replicas", "fleet", "router", "autoscale", "min-replicas",
              "max-replicas", "replica-rps", "autoscale-boot-ms",
              "autoscale-up-policy", "autoscale-alpha",
              "autoscale-demand-source", "autoscale-boot-horizon",
              "slo-admission", "tenants",
              "migration", "topology", "fabric-top-k"}) {
            require(!flagGiven(argc, argv, conflicting),
                    std::string("--") + conflicting +
                        " conflicts with --config; edit the config file "
                        "instead (workload flags --rps/--duration/--seed/"
                        "--adapters/--workload still apply)");
        }
        std::string config_error;
        auto parsed = core::specFromJson(
            tools::readAll(*config_file, "chameleon_sim"), &config_error);
        if (!parsed.has_value()) {
            std::fprintf(stderr, "%s\n", config_error.c_str());
            return 2;
        }
        spec = *parsed;
    } else {
        std::string lookup_error;
        auto found = core::SystemRegistry::global().find(*system,
                                                         &lookup_error);
        if (!found.has_value()) {
            std::fprintf(stderr, "%s\n", lookup_error.c_str());
            return 2;
        }
        spec = *found;

        require(model::tryModelByName(*model_name, &spec.engine.model),
                "unknown --model '" + *model_name +
                    "'; known: " + model::modelPresetNames());
        require(*gpu_name == "a40" || *gpu_name == "a100",
                "unknown --gpu '" + *gpu_name + "'; known: a40, a100");
        require(*gpu_name == "a100" || *mem_gib == 0,
                "--mem-gib applies to --gpu a100 only");
        require(*mem_gib == 0 || *mem_gib == 24 || *mem_gib == 48 ||
                    *mem_gib == 80,
                "--mem-gib must be 24, 48 or 80 (0 = 80)");
        spec.engine.gpu = *gpu_name == "a40"
                              ? model::a40()
                              : model::a100(*mem_gib == 0
                                                ? 80
                                                : static_cast<int>(*mem_gib));
        // The cost model splits work across a power-of-two GPU group.
        require(*tp >= 1 && (*tp & (*tp - 1)) == 0,
                "--tp must be a power of two >= 1 (got " +
                    std::to_string(*tp) + ")");
        spec.engine.tpDegree = static_cast<int>(*tp);
        spec.predictor.accuracy = *acc;
        spec.predictor.seed = static_cast<std::uint64_t>(*seed);

        require(*tenants >= 1 && *tenants <= kMaxInt,
                "--tenants must be within [1, 2^31)");
        spec.tenancy.tenants = static_cast<int>(*tenants);

        require(*replicas >= 1 && *replicas <= kMaxInt,
                "--replicas must be within [1, 2^31)");
        spec.cluster.replicas = static_cast<int>(*replicas);
        if (!fleet->empty()) {
            // A fleet defines the replica count; a --replicas beside it
            // would silently lose to one of the two.
            if (flagGiven(argc, argv, "replicas")) {
                std::fprintf(stderr,
                             "--replicas conflicts with --fleet; the "
                             "fleet preset already defines the replica "
                             "count\n");
                return 2;
            }
            std::vector<model::GpuSpec> gpus;
            if (!model::tryFleetByName(*fleet, &gpus)) {
                std::fprintf(stderr,
                             "unknown --fleet '%s'; expected %s\n",
                             fleet->c_str(),
                             model::fleetGrammarHelp().c_str());
                return 2;
            }
            spec.cluster.replicas = static_cast<int>(gpus.size());
            spec.cluster.replicaEngines =
                serving::fleetEngines(spec.engine, gpus);
        }
        parseEnumFlag("router", *router, &spec.cluster.router);
        spec.cluster.routerConfig.seed = static_cast<std::uint64_t>(*seed);
        spec.cluster.autoscale = *autoscale;
        // A negative bound would wrap to ~2^64 replicas in the size_t
        // spec fields and pass validate().
        require(*min_replicas >= 1 && *min_replicas <= kMaxInt,
                "--min-replicas must be within [1, 2^31)");
        require(*max_replicas >= 1 && *max_replicas <= kMaxInt,
                "--max-replicas must be within [1, 2^31)");
        spec.cluster.autoscaler.minReplicas =
            static_cast<std::size_t>(*min_replicas);
        spec.cluster.autoscaler.maxReplicas =
            static_cast<std::size_t>(*max_replicas);
        spec.cluster.autoscaler.replicaServiceRps = *replica_rps;
        spec.cluster.autoscaler.bootMs = *boot_ms;
        parseEnumFlag("autoscale-up-policy", *up_policy,
                      &spec.cluster.autoscaler.scaleUpPolicy);
        spec.cluster.autoscaler.measuredRateAlpha = *measured_alpha;
        parseEnumFlag("autoscale-demand-source", *demand_source,
                      &spec.cluster.autoscaler.demandSource);
        spec.cluster.autoscaler.bootAwareHorizon = *boot_horizon;
        spec.cluster.routerConfig.sloAdmission = *slo_admission;
        parseEnumFlag("migration", *migration, &spec.fabric.migration);
        parseEnumFlag("topology", *topology, &spec.fabric.topology);
        require(*fabric_top_k >= 1, "--fabric-top-k must be >= 1");
        spec.fabric.topK = static_cast<std::size_t>(*fabric_top_k);
        // Cluster-only flags silently doing nothing would misread as a
        // valid run of the requested policy, even at their defaults.
        require(spec.cluster.replicas > 1 || spec.cluster.autoscale ||
                    !flagGiven(argc, argv, "router"),
                "--router requires --replicas > 1 or --autoscale");
        for (const char *flag :
             {"min-replicas", "max-replicas", "replica-rps",
              "autoscale-boot-ms", "autoscale-up-policy", "autoscale-alpha",
              "autoscale-demand-source", "autoscale-boot-horizon"}) {
            require(spec.cluster.autoscale || !flagGiven(argc, argv, flag),
                    std::string("--") + flag + " requires --autoscale");
        }
        require(spec.fabric.migration == fabric::MigrationPolicy::Off ||
                    spec.cluster.replicas > 1 || spec.cluster.autoscale,
                "--migration needs peers: --replicas > 1 or --autoscale");
        for (const char *flag : {"topology", "fabric-top-k"}) {
            require(spec.fabric.enabled() || !flagGiven(argc, argv, flag),
                    std::string("--") + flag + " requires --migration");
        }
        // Whatever the flags composed must also be a valid spec; its
        // messages name the spec field each flag set.
        const auto problems = spec.validate();
        std::string joined = "invalid system from the flags:";
        for (const auto &problem : problems)
            joined += "\n  - " + problem;
        require(problems.empty(), joined);
    }
    const bool clusterRun =
        spec.cluster.replicas > 1 || spec.cluster.autoscale;

    require(*tenant_storm >= 1.0 && std::isfinite(*tenant_storm),
            "--tenant-storm must be finite and >= 1 (1 disables the "
            "storm)");
    require(*tenant_storm <= 1.0 || spec.tenancy.tenants > 1,
            "--tenant-storm needs more than one tenant (--tenants, or "
            "the config file's tenancy.tenants); a storm is one tenant "
            "bursting against the others");
    constexpr sim::Domain sloDomain =
        sim::within(0.0, serving::kMaxSloMultiplier);
    require(sloDomain.contains(*slo_multiplier),
            sim::domainError("--slo-multiplier", sloDomain,
                             sim::formatDouble(*slo_multiplier)) +
                "; 0 disables SLO reporting");
    require(*adapters >= 0 && *adapters <= kMaxInt,
            "--adapters must be within [0, 2^31) (0 = base only)");
    workload::TraceGenConfig wl;
    if (trace_in->empty()) {
        // Only a generated trace reads these.
        workload::TracePreset preset{};
        parseEnumFlag("workload", *workload_name, &preset);
        wl = workload::presetConfig(preset);
        wl.rps = *rps;
        wl.durationSeconds = *duration;
        wl.numAdapters = static_cast<int>(*adapters);
        wl.seed = static_cast<std::uint64_t>(*seed);
        wl.numTenants = spec.tenancy.tenants;
        workload::applyTenantStorm(&wl, *tenant_storm);
        const std::string load =
            workload::traceLoadProblem(wl, "--rps", "--duration");
        require(load.empty(), load);
    }

    if (*dump_config) {
        // The resolved spec alone reproduces this system: pipe it back
        // through --config - for a bit-identical seeded run.
        std::fputs(core::specToJson(spec).c_str(), stdout);
        return 0;
    }

    std::unique_ptr<model::AdapterPool> pool;
    if (*adapters > 0) {
        pool = std::make_unique<model::AdapterPool>(
            spec.engine.model, static_cast<int>(*adapters));
    }

    workload::Trace trace;
    if (!trace_in->empty()) {
        std::string error;
        const bool loaded =
            workload::Trace::tryLoadCsv(*trace_in, &trace, &error);
        require(loaded, "bad --trace file: " + error);
        for (const auto &r : trace.requests()) {
            require(r.adapter < *adapters,
                    "--trace request " + std::to_string(r.id) +
                        " names adapter " + std::to_string(r.adapter) +
                        ", but --adapters is " + std::to_string(*adapters));
        }
    } else {
        workload::TraceGenerator gen(wl, pool.get());
        trace = gen.generate();
    }
    require(!trace.empty(), "the trace has no requests; raise --duration "
                            "or --rps (or check the --trace file)");
    if (!save_trace->empty())
        trace.saveCsv(*save_trace);

    core::Runner runner(spec, pool.get());
    runner.setSloMultiplier(*slo_multiplier);
    obs::TraceRecorder recorder;
    if (!trace_out->empty())
        runner.setTraceRecorder(&recorder);
    const core::RunReport report = runner.run(trace);
    const auto &s = report.stats;

    std::printf("system      : %s (scheduler %s, adapters %s"
                "%s%s)\n",
                spec.name.c_str(),
                core::schedulerPolicyName(spec.scheduler.policy),
                core::adapterPolicyName(spec.adapters.policy),
                spec.adapters.policy ==
                        core::AdapterPolicy::ChameleonCache
                    ? ", eviction "
                    : "",
                spec.adapters.policy ==
                        core::AdapterPolicy::ChameleonCache
                    ? core::evictionPolicyName(spec.adapters.eviction)
                    : "");
    std::printf("deployment  : %s on %s x%d, %lld adapters\n",
                spec.engine.model.name.c_str(),
                spec.engine.gpu.name.c_str(), spec.engine.tpDegree,
                static_cast<long long>(*adapters));
    if (clusterRun) {
        std::printf("cluster     : %d replicas, %s routing%s%s%s%s\n",
                    spec.cluster.replicas,
                    routing::routerPolicyName(spec.cluster.router),
                    spec.cluster.routerConfig.sloAdmission
                        ? " + slo admission"
                        : "",
                    spec.cluster.autoscale ? ", autoscaling" : "",
                    spec.cluster.autoscaler.demandSource ==
                            routing::DemandSource::Measured
                        ? " on measured demand"
                        : "",
                    spec.cluster.autoscaler.bootAwareHorizon
                        ? ", boot-aware horizon"
                        : "");
        if (!spec.cluster.replicaEngines.empty()) {
            std::printf("fleet       :");
            for (const auto &engine : spec.cluster.replicaEngines)
                std::printf(" %s", engine.gpu.name.c_str());
            std::printf("\n");
        }
        if (spec.fabricEnabled()) {
            std::printf("fabric      : migration %s over %s, top-%zu "
                        "hot adapters\n",
                        fabric::migrationPolicyName(spec.fabric.migration),
                        fabric::topologyName(spec.fabric.topology),
                        spec.fabric.topK);
        }
    }
    std::printf("trace       : %zu requests, %.2f RPS, %.0f s\n",
                trace.size(), trace.meanRps(),
                sim::toSeconds(trace.duration()));
    if (spec.tenancy.tenants > 1) {
        std::printf("tenants     : %d equal-share", spec.tenancy.tenants);
        if (*tenant_storm > 1.0)
            std::printf(", tenant 0 storming at %gx mid-trace",
                        *tenant_storm);
        std::printf("\n");
    }
    if (*slo_multiplier > 0.0) {
        std::printf("TTFT SLO    : %.2f s (%gx mean isolated latency)\n\n",
                    report.sloSeconds, *slo_multiplier);
    } else {
        std::printf("TTFT SLO    : disabled (--slo-multiplier 0)\n\n");
    }

    std::printf("finished    : %lld / %lld (%lld preempts, %lld squashes, "
                "%lld bypasses, %.1f%% cache hits)\n",
                static_cast<long long>(s.finished),
                static_cast<long long>(s.submitted),
                static_cast<long long>(s.preemptions),
                static_cast<long long>(s.squashes),
                static_cast<long long>(s.bypasses),
                100.0 * s.cacheHitRate());
    std::printf("TTFT        : p50 %.3f s, p90 %.3f s, p99 %.3f s%s\n",
                s.ttft.p50(), s.ttft.p90(), s.ttft.p99(),
                *slo_multiplier <= 0.0             ? ""
                : s.ttft.p99() <= report.sloSeconds ? "  (meets SLO)"
                                                    : "  (VIOLATES SLO)");
    std::printf("TBT         : p50 %.1f ms, p99 %.1f ms\n", s.tbt.p50(),
                s.tbt.p99());
    std::printf("E2E         : p50 %.2f s, p99 %.2f s\n", s.e2e.p50(),
                s.e2e.p99());
    std::printf("queue delay : p50 %.3f s, p99 %.3f s\n", s.queueDelay.p50(),
                s.queueDelay.p99());
    std::printf("load stall  : mean %.2f ms, p99 %.2f ms\n",
                s.loadStall.mean(), s.loadStall.p99());
    std::printf("adapters    : hit rate %.1f%%, %lld evictions\n",
                100.0 * report.cacheHitRate,
                static_cast<long long>(report.cacheEvictions));
    if (report.sloAttainment >= 0.0) {
        std::printf("SLO         : %.1f%% of requests met the %.2f s "
                    "TTFT SLO\n",
                    100.0 * report.sloAttainment, report.sloSeconds);
    }
    if (report.tenants.size() > 1) {
        std::printf("fairness    : Jain index %.4f over per-tenant "
                    "weighted service\n",
                    report.fairnessIndex);
        for (const auto &t : report.tenants) {
            std::printf("tenant %-5d: %lld finished, TTFT p50 %.3f s "
                        "p99 %.3f s, E2E p99 %.2f s, slowdown mean %.2f "
                        "p99 %.2f",
                        t.tenant, static_cast<long long>(t.finished),
                        t.p50TtftSeconds, t.p99TtftSeconds,
                        t.p99E2eSeconds, t.meanSlowdown, t.p99Slowdown);
            if (t.sloAttainment >= 0.0)
                std::printf(", SLO %.1f%%", 100.0 * t.sloAttainment);
            std::printf("\n");
        }
    }
    if (clusterRun) {
        // Per-link rate/utilisation is not meaningful summed over
        // replicas; report totals only.
        std::printf("PCIe        : %.2f GB, %lld transfers across replicas\n",
                    static_cast<double>(report.pcieBytes) / 1e9,
                    static_cast<long long>(report.pcieTransfers));
    } else {
        std::printf("PCIe        : %.2f GB total, %.1f MB/s mean, "
                    "utilisation %.1f%%\n",
                    static_cast<double>(report.pcieBytes) / 1e9,
                    report.pcieMeanBytesPerSec / 1e6,
                    100.0 * report.pcieUtilisation);
    }
    const double elapsed =
        std::max(1e-9, sim::toSeconds(trace.duration()));
    std::printf("engine      : %lld iterations, busy %.1f s, mean batch "
                "%.1f, %.0f prefill tok/s, %.0f decode tok/s\n",
                static_cast<long long>(s.iterations),
                sim::toSeconds(s.busyTime),
                s.iterations ? static_cast<double>(s.batchSizeAccum) /
                                   static_cast<double>(s.iterations)
                             : 0.0,
                static_cast<double>(s.prefillTokens) / elapsed,
                static_cast<double>(s.decodeTokens) / elapsed);
    if (report.mlqQueues > 0)
        std::printf("scheduler   : %d MLQ queues\n", report.mlqQueues);
    if (clusterRun) {
        std::printf("replicas    : %zu built, %zu active at end, "
                    "%lld scale-ups, %lld scale-downs\n",
                    report.peakReplicas, report.finalActiveReplicas,
                    static_cast<long long>(report.scaleUps),
                    static_cast<long long>(report.scaleDowns));
        std::printf("per-replica :");
        for (const auto finished : report.perReplicaFinished)
            std::printf(" %lld", static_cast<long long>(finished));
        std::printf(" finished\n");
        std::printf("svc rate    :");
        for (const double rate : report.perReplicaServiceRate)
            std::printf(" %.2f", rate);
        std::printf(" req/s nominal (routing weights)\n");
        if (report.perReplicaEffectiveRate !=
            report.perReplicaServiceRate) {
            std::printf("measured    :");
            for (const double rate : report.perReplicaEffectiveRate)
                std::printf(" %.2f", rate);
            std::printf(" req/s EWMA (weights in effect)\n");
        }
        if (report.bootEvents > 0) {
            std::printf("cold start  : %lld boots, %.2f s total boot "
                        "time, %lld requests dispatched while booting\n",
                        static_cast<long long>(report.bootEvents),
                        report.totalBootSeconds,
                        static_cast<long long>(
                            report.requestsDelayedByBoot));
        }
        if (report.fabricEnabled) {
            std::printf("fabric      : %lld migrations, %.2f GB over "
                        "%lld peer transfers\n",
                        static_cast<long long>(report.fabricMigrations),
                        static_cast<double>(report.fabricPeerBytes) / 1e9,
                        static_cast<long long>(
                            report.fabricPeerTransfers));
        }
    }

    if (!records_csv->empty()) {
        writeRecordsCsv(*records_csv, s.records);
        std::printf("\nper-request records written to %s\n",
                    records_csv->c_str());
    }
    if (!trace_out->empty()) {
        recorder.writeJson(*trace_out);
        std::printf("\ntrace (%zu events) written to %s — open in "
                    "Perfetto or chrome://tracing\n",
                    recorder.size(), trace_out->c_str());
    }
    if (!metrics_out->empty()) {
        std::ofstream out(*metrics_out);
        require(out.good(),
                "cannot open --metrics-out file " + *metrics_out);
        out << report.metrics.dump() << '\n';
        std::printf("metrics snapshot written to %s\n",
                    metrics_out->c_str());
    }
    return 0;
}
