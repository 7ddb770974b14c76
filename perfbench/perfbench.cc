/**
 * @file
 * End-to-end benchmark: one workload, one seed, one mode.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>]
 *
 * --trace 0 times whole repetitions of generate -> Runner -> run with
 * no instrumentation and reports the end-to-end metrics. --trace 1
 * alternates untraced and traced repetitions: the traced ones wrap each
 * layer call in a span, replay the run's inputs through the layers'
 * public functions, and report the per-layer metrics, the tracing
 * overhead and a Chrome trace file. Both modes check every repetition
 * (request conservation, same-seed event-hash equality, finite
 * percentiles) and print one JSON result as the last stdout line; a
 * failed check exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "chameleon/system.h"
#include "obs/metrics_registry.h"
#include "probes.h"
#include "serving/slo.h"
#include "span_log.h"
#include "workloads.h"

using namespace chameleon;

namespace perfbench {
namespace {

/** Every repetition must pass its checks; at least this many are run. */
constexpr int kMinReps = 3;
/** The paper's SLO: 5x the mean isolated latency (§5.1). */
constexpr double kSloMultiplier = 5.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
                 "workloads:");
    for (const auto &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args->workload = value;
        } else if (key == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            args->seconds = std::strtod(value, &end);
            if (!(args->seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return false;
            args->trace = value[0] == '1';
        } else if (key == "--trace-dir") {
            args->traceDir = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !args->workload.empty();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** One generate -> construct -> run repetition and its timings. */
struct Rep
{
    workload::Trace trace;
    std::unique_ptr<core::Runner> runner;
    core::RunReport report;
    double generateS = 0.0;
    double ctorS = 0.0;
    double runS = 0.0;

    double setupS() const { return generateS + ctorS; }
};

/**
 * Run one repetition. With a span log, each phase is a child span of
 * `parent`; without one, the phases are timed with bare clock reads.
 */
Rep
runRep(const Workload &w, SpanLog *log = nullptr,
       int parent = SpanLog::kNoParent, const std::string &run = "")
{
    Rep rep;
    auto phase = [&](const char *name, auto &&fn) {
        if (log != nullptr)
            return log->time(name, parent, run, fn);
        const auto start = Clock::now();
        fn();
        return secondsSince(start);
    };
    rep.generateS = phase("workload.TraceGenerator::generate", [&] {
        workload::TraceGenerator gen(w.gen, w.pool.get());
        rep.trace = gen.generate();
    });
    rep.ctorS = phase("chameleon.Runner::Runner", [&] {
        rep.runner = std::make_unique<core::Runner>(w.spec, w.pool.get());
        rep.runner->setSloMultiplier(kSloMultiplier);
    });
    rep.runS = phase("chameleon.Runner::run", [&] {
        rep.report = rep.runner->run(rep.trace);
    });
    return rep;
}

/** The simulated outcome of a run, plus the checks it failed. */
struct SimSummary
{
    std::int64_t submitted = 0;
    std::int64_t finished = 0;
    std::int64_t unfinished = 0;
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double tbtP99 = 0.0;
    double e2eP99 = 0.0;
    double sloAttainment = 0.0;
    std::vector<std::string> errors;
};

SimSummary
summarize(const Workload &w, const Rep &rep)
{
    SimSummary s;
    const serving::EngineStats &stats = rep.report.stats;
    const auto &records = stats.records;
    s.submitted = static_cast<std::int64_t>(rep.trace.size());
    s.finished = static_cast<std::int64_t>(records.size());

    // Unfinished = trace requests with no finished record, counted
    // independently of the engines' own counters.
    std::vector<char> done(rep.trace.size(), 0);
    std::int64_t distinct = 0;
    for (const auto &rec : records) {
        if (rec.id < 0 || rec.id >= s.submitted || done[rec.id]) {
            s.errors.push_back("finished record with unknown or repeated "
                               "request id " + std::to_string(rec.id));
            break;
        }
        done[rec.id] = 1;
        ++distinct;
    }
    s.unfinished = s.submitted - distinct;
    if (stats.submitted != s.submitted || stats.finished != s.finished ||
        s.finished + s.unfinished != s.submitted) {
        s.errors.push_back(
            "request conservation: trace " + std::to_string(s.submitted) +
            ", engine submitted " + std::to_string(stats.submitted) +
            ", finished " + std::to_string(stats.finished) + " (" +
            std::to_string(s.finished) + " records), unfinished " +
            std::to_string(s.unfinished));
    }

    // Met = TTFT within the tenant's share of the paper SLO; requests
    // that never finished count as misses.
    std::int64_t met = 0;
    for (const auto &rec : records) {
        const double slo = rep.report.sloSeconds *
                           w.spec.tenancy.sloMultiplierFor(rec.tenant);
        if (sim::toSeconds(rec.ttft) <= slo)
            ++met;
    }
    s.sloAttainment = s.submitted > 0 ? static_cast<double>(met) /
                                            static_cast<double>(s.submitted)
                                      : 0.0;
    s.ttftP50 = stats.ttft.p50();
    s.ttftP99 = stats.ttft.p99();
    s.tbtP99 = stats.tbt.p99() / 1e3; // the engine records TBT in ms
    s.e2eP99 = stats.e2e.p99();
    const std::pair<const char *, double> checked[] = {
        {"sim_ttft_p50_s", s.ttftP50}, {"sim_ttft_p99_s", s.ttftP99},
        {"sim_tbt_p99_s", s.tbtP99},   {"sim_e2e_p99_s", s.e2eP99},
        {"sim_slo_attainment", s.sloAttainment}};
    for (const auto &[name, value] : checked) {
        if (!std::isfinite(value) || value <= 0.0) {
            s.errors.push_back(std::string(name) + " is " +
                               std::to_string(value) +
                               ", not a finite positive number");
        }
    }
    return s;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Tally of every checked repetition: the JSON's attempted/failed. */
struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> errors;
};

/**
 * Check one repetition against the reference hash and record it.
 * A repetition that fails a check counts all of its requests as failed.
 */
SimSummary
checkRep(const Workload &w, const Rep &rep, std::uint64_t referenceHash,
         const std::string &label, Tally *tally)
{
    SimSummary s = summarize(w, rep);
    if (rep.report.eventHash != referenceHash) {
        char text[128];
        std::snprintf(text, sizeof(text),
                      "eventHash 0x%016llx differs from the reference "
                      "0x%016llx",
                      static_cast<unsigned long long>(rep.report.eventHash),
                      static_cast<unsigned long long>(referenceHash));
        s.errors.push_back(text);
    }
    tally->attempted += s.submitted;
    tally->failed += s.errors.empty() ? s.unfinished : s.submitted;
    for (const auto &e : s.errors)
        tally->errors.push_back(label + ": " + e);
    return s;
}

void
printSimSummary(const Workload &w, std::uint64_t seed, const Rep &rep,
                const SimSummary &s)
{
    const serving::EngineStats &stats = rep.report.stats;
    std::printf("workload %s seed %llu: %lld requests, eventHash "
                "0x%016llx\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<long long>(s.submitted),
                static_cast<unsigned long long>(rep.report.eventHash));
    std::printf("  sim_ttft_p50_s      %.6f (n=%zu)\n", s.ttftP50,
                stats.ttft.count());
    std::printf("  sim_ttft_p99_s      %.6f (n=%zu)\n", s.ttftP99,
                stats.ttft.count());
    std::printf("  sim_tbt_p99_s       %.6f (n=%zu iterations)\n",
                s.tbtP99, stats.tbt.count());
    std::printf("  sim_e2e_p99_s       %.6f (n=%zu)\n", s.e2eP99,
                stats.e2e.count());
    std::printf("  sim_slo_attainment  %.6f (SLO %.3f s, of %lld "
                "submitted)\n",
                s.sloAttainment, rep.report.sloSeconds,
                static_cast<long long>(s.submitted));
    std::printf("  sim_unfinished_frac %.6f (%lld of %lld)\n",
                s.submitted ? static_cast<double>(s.unfinished) /
                                  static_cast<double>(s.submitted)
                            : 0.0,
                static_cast<long long>(s.unfinished),
                static_cast<long long>(s.submitted));
}

/** The last stdout line: correct/attempted/failed and every metric. */
void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                tally.errors.empty() ? "true" : "false",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * True while another repetition fits: the minimum count is not reached,
 * or one more repetition as long as the last one still ends within
 * `seconds` of `start`.
 */
bool
repFits(int done, int minimum, Clock::time_point start, double seconds,
        double lastRepS)
{
    return done < minimum || secondsSince(start) + lastRepS <= seconds;
}

/**
 * --trace 0: untraced repetitions, end-to-end metrics. Host times are
 * calibrated (see calibrate.h): each repetition is bracketed by runs of
 * the calibration kernel, and its times are scaled by the reference
 * kernel time over the bracketing kernel times. host_req_per_s is the
 * fastest calibrated repetition, since the host's interference only
 * ever slows a repetition down; setup_s is the calibrated median.
 */
std::vector<Metric>
endToEnd(const Workload &w, const Args &args, Tally *tally)
{
    // Warm-up repetition: fills allocator arenas and fixes the
    // reference hash; it is checked but not timed. Peak memory is read
    // after it, before the calibration kernel's table exists.
    Rep warm = runRep(w);
    const std::uint64_t reference = warm.report.eventHash;
    const SimSummary sim = checkRep(w, warm, reference, "warm-up", tally);
    printSimSummary(w, args.seed, warm, sim);
    warm = Rep{};
    const double peakRss = peakRssMb();

    HostCalibration calibration;
    std::vector<double> reqPerS;
    std::vector<double> setupS;
    std::vector<double> rawReqPerS;
    std::vector<double> kernelS;
    double before = calibration.measure();
    double lastRepS = 0.0;
    const auto start = Clock::now();
    while (repFits(static_cast<int>(reqPerS.size()), kMinReps, start,
                   args.seconds, lastRepS)) {
        const auto begin = Clock::now();
        Rep rep = runRep(w);
        const double after = calibration.measure();
        const double scale = HostCalibration::scale(before, after);
        before = after;
        const SimSummary s =
            checkRep(w, rep, reference,
                     "rep " + std::to_string(reqPerS.size()), tally);
        const double finished = static_cast<double>(s.finished);
        rawReqPerS.push_back(finished / rep.runS);
        reqPerS.push_back(finished / (rep.runS * scale));
        setupS.push_back(rep.setupS() * scale);
        kernelS.push_back(after);
        rep = Rep{};
        lastRepS = secondsSince(begin);
    }
    std::printf("  %zu timed repetitions; calibrated req/s min %.0f median "
                "%.0f max %.0f; uncalibrated median %.0f; calibration "
                "kernel median %.4f s (reference %.4f s)\n",
                reqPerS.size(),
                *std::min_element(reqPerS.begin(), reqPerS.end()),
                median(reqPerS),
                *std::max_element(reqPerS.begin(), reqPerS.end()),
                median(rawReqPerS), median(kernelS),
                HostCalibration::kReferenceSeconds);
    return {
        {"host_req_per_s", "req/s",
         *std::max_element(reqPerS.begin(), reqPerS.end())},
        {"setup_s", "s", median(setupS)},
        {"host_peak_rss_mb", "MB", peakRss},
        {"sim_ttft_p50_s", "s", sim.ttftP50},
        {"sim_ttft_p99_s", "s", sim.ttftP99},
        {"sim_tbt_p99_s", "s", sim.tbtP99},
        {"sim_e2e_p99_s", "s", sim.e2eP99},
        {"sim_slo_attainment", "fraction", sim.sloAttainment},
    };
}

/**
 * Host per-layer figures of one traced repetition: re-time the
 * post-simulation phases of Runner::run and replay the run's inputs
 * through each layer, each inside a span under `parent`.
 */
std::vector<Metric>
probeLayers(const Workload &w, Rep &rep, SpanLog &log, int parent,
            const std::string &run, std::vector<std::string> *errors)
{
    const core::SystemSpec &spec = w.spec;
    const model::AdapterPool *pool = w.pool.get();
    const core::RunReport &report = rep.report;
    const serving::EngineStats &stats = report.stats;
    const model::CostModel cost(spec.engine.model, spec.engine.gpu,
                                spec.engine.tpDegree, spec.engine.cost);
    const int batch = std::max<int>(
        1, static_cast<int>(std::lround(
               stats.iterations ? static_cast<double>(stats.batchSizeAccum) /
                                      static_cast<double>(stats.iterations)
                                : 1.0)));
    auto span = [&](const char *name, auto &&fn) {
        return log.time(name, parent, run, fn);
    };

    const double sloS = span("serving.computeSlo", [&] {
        serving::computeSlo(rep.trace, cost, pool, kSloMultiplier);
    });
    const double slowdownsS = span("serving.slowdowns", [&] {
        serving::slowdowns(stats.records, cost, pool);
    });
    const double fillS = span("obs.fillRunMetrics", [&] {
        obs::MetricsRegistry registry;
        core::fillRunMetrics(registry, rep.runner->cluster(), report);
        registry.snapshot();
    });
    std::uint64_t hash = 0;
    const double hashS = span("chameleon.eventHash", [&] {
        hash = core::fnv1a64(
            core::canonicalEventStream(rep.runner->cluster(), report));
    });
    if (hash != report.eventHash)
        errors->push_back("re-timed eventHash differs from the run's");

    double kmeans = 0.0, isolated = 0.0, decode = 0.0, kv = 0.0;
    double route = 0.0, event = 0.0;
    span("chameleon.chooseClusters", [&] { kmeans = kmeansMs(stats.records); });
    span("model.isolatedE2e",
         [&] { isolated = isolatedE2eNs(cost, rep.trace, pool); });
    span("model.decodeIterTime",
         [&] { decode = decodeIterNs(cost, rep.trace, pool, batch); });
    span("gpu.KvCache", [&] {
        kv = kvReserveNs(spec.engine.model.kvBytesPerToken(), rep.trace,
                         batch);
    });
    span("routing.Router::route",
         [&] { route = routeNs(spec, rep.trace, rep.runner->cluster()); });
    span("simkit.Simulator", [&] {
        // Width ~ the pending events a run keeps per replica.
        event = eventReplayNs(rep.runner->simulator().eventsDispatched(),
                              8 * rep.runner->cluster().engines().size());
    });
    return {
        {"simkit.host_event_ns", "ns", event},
        {"workload.host_generate_s", "s", rep.generateS},
        {"chameleon.host_runner_ctor_s", "s", rep.ctorS},
        {"chameleon.host_event_hash_s", "s", hashS},
        {"chameleon.host_kmeans_ms", "ms", kmeans},
        {"serving.host_sim_s", "s",
         rep.runS - sloS - slowdownsS - fillS - hashS},
        {"serving.host_slo_s", "s", sloS},
        {"serving.host_slowdowns_s", "s", slowdownsS},
        {"model.host_isolated_e2e_ns", "ns", isolated},
        {"model.host_decode_iter_ns", "ns", decode},
        {"gpu.host_kv_reserve_ns", "ns", kv},
        {"routing.host_route_ns", "ns", route},
        {"obs.host_fill_metrics_s", "s", fillS},
    };
}

/** Simulated per-layer counts and latencies of a run (seed-determined). */
std::vector<Metric>
simulatedLayers(const Rep &rep)
{
    const core::RunReport &r = rep.report;
    const serving::EngineStats &s = r.stats;
    const double submitted = static_cast<double>(rep.trace.size());
    const double events =
        static_cast<double>(rep.runner->simulator().eventsDispatched());
    const double simEnd = sim::toSeconds(rep.runner->simulator().now());
    std::int64_t maxFinished = 0;
    std::int64_t sumFinished = 0;
    for (const std::int64_t n : r.perReplicaFinished) {
        maxFinished = std::max(maxFinished, n);
        sumFinished += n;
    }
    const double meanFinished =
        r.perReplicaFinished.empty()
            ? 0.0
            : static_cast<double>(sumFinished) /
                  static_cast<double>(r.perReplicaFinished.size());
    double minSlo = 1.0;
    for (const auto &t : r.tenants)
        minSlo = std::min(minSlo, t.sloAttainment);
    const double replicas = static_cast<double>(r.peakReplicas);
    return {
        {"simkit.events", "count", events},
        {"simkit.events_per_req", "events/req", events / submitted},
        {"chameleon.cache_hit_rate", "fraction", r.cacheHitRate},
        {"chameleon.cache_evictions", "count",
         static_cast<double>(r.cacheEvictions)},
        {"chameleon.load_stall_p99_s", "s", s.loadStall.p99() / 1e3},
        {"chameleon.mlq_queues", "count", static_cast<double>(r.mlqQueues)},
        {"serving.queue_delay_p50_s", "s", s.queueDelay.p50()},
        {"serving.queue_delay_p99_s", "s", s.queueDelay.p99()},
        {"serving.bypasses", "count", static_cast<double>(s.bypasses)},
        {"serving.squashes", "count", static_cast<double>(s.squashes)},
        {"serving.iterations", "count", static_cast<double>(s.iterations)},
        {"serving.mean_batch", "requests",
         s.iterations ? static_cast<double>(s.batchSizeAccum) /
                            static_cast<double>(s.iterations)
                      : 0.0},
        {"serving.preemptions", "count", static_cast<double>(s.preemptions)},
        {"serving.busy_frac", "fraction",
         simEnd > 0.0 ? sim::toSeconds(s.busyTime) / (replicas * simEnd)
                      : 0.0},
        {"gpu.pcie_gb", "GB", static_cast<double>(r.pcieBytes) / 1e9},
        {"gpu.pcie_transfers", "count", static_cast<double>(r.pcieTransfers)},
        {"routing.imbalance", "ratio",
         meanFinished > 0.0 ? static_cast<double>(maxFinished) / meanFinished
                            : 0.0},
        {"routing.scale_ups", "count", static_cast<double>(r.scaleUps)},
        {"routing.scale_downs", "count", static_cast<double>(r.scaleDowns)},
        {"routing.peak_replicas", "count", replicas},
        {"routing.boot_delayed_frac", "fraction",
         static_cast<double>(r.requestsDelayedByBoot) / submitted},
        {"fabric.migrations", "count", static_cast<double>(r.fabricMigrations)},
        {"fabric.peer_gb", "GB", static_cast<double>(r.fabricPeerBytes) / 1e9},
        {"tenancy.jain", "index", r.fairnessIndex},
        {"tenancy.min_slo_attainment", "fraction", minSlo},
    };
}

/** --trace 1: alternate untraced and traced repetitions. */
std::vector<Metric>
perLayer(const Workload &w, const Args &args, Tally *tally)
{
    SpanLog log;
    const std::string runBase =
        w.name + "/seed" + std::to_string(args.seed) + "/";

    Rep warm = runRep(w);
    const std::uint64_t reference = warm.report.eventHash;
    printSimSummary(w, args.seed, warm,
                    checkRep(w, warm, reference, "warm-up", tally));
    warm = Rep{};

    std::vector<double> untracedWall;
    std::vector<double> tracedWall;
    std::vector<Metric> host;
    std::vector<std::vector<double>> hostValues;
    std::vector<Metric> simulated;
    double lastPairS = 0.0;
    const auto start = Clock::now();
    for (int pair = 0;
         repFits(pair, kMinReps - 1, start, args.seconds, lastPairS);
         ++pair) {
        const auto pairBegin = Clock::now();
        const std::string tag = std::to_string(pair);
        {
            const auto begin = Clock::now();
            Rep rep = runRep(w);
            untracedWall.push_back(secondsSince(begin));
            checkRep(w, rep, reference, runBase + "untraced-" + tag, tally);
        }
        // Both walls cover generate + construct + run, clocked the same
        // way, so their ratio is what the spans cost.
        const std::string run = runBase + "traced-" + tag;
        const auto begin = Clock::now();
        const int root = log.begin("perfbench.traced_rep", SpanLog::kNoParent,
                                   run);
        Rep rep = runRep(w, &log, root, run);
        tracedWall.push_back(secondsSince(begin));
        checkRep(w, rep, reference, run, tally);
        std::vector<std::string> errors;
        host = probeLayers(w, rep, log, root, run, &errors);
        hostValues.resize(host.size());
        for (std::size_t i = 0; i < host.size(); ++i)
            hostValues[i].push_back(host[i].value);
        for (const auto &e : errors)
            tally->errors.push_back(run + ": " + e);
        log.end(root);
        simulated = simulatedLayers(rep);
        lastPairS = secondsSince(pairBegin);
    }

    const double overhead = median(tracedWall) / median(untracedWall);
    std::printf("  %zu traced / %zu untraced repetitions; traced wall "
                "%.4f s vs untraced %.4f s (overhead x%.4f)\n",
                tracedWall.size(), untracedWall.size(), median(tracedWall),
                median(untracedWall), overhead);
    std::printf("\nper-layer spans (traced repetitions):\n");
    log.printLayerTable(stdout, runBase + "traced-");
    const std::string path = args.traceDir + "/perfbench-" + w.name +
                             "-seed" + std::to_string(args.seed) +
                             ".trace.json";
    if (log.writeChromeTrace(path))
        std::printf("chrome trace: %s\n", path.c_str());
    else
        tally->errors.push_back("cannot write " + path);

    std::vector<Metric> metrics = simulated;
    for (std::size_t i = 0; i < host.size(); ++i)
        metrics.push_back({host[i].name, host[i].unit, median(hostValues[i])});
    metrics.push_back({"perfbench.host_trace_overhead", "ratio", overhead});
    std::printf("\nper-layer metrics (host = median of traced "
                "repetitions):\n");
    for (const auto &m : metrics)
        std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    return metrics;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        usage();
        return 2;
    }
    Workload w;
    if (!makeWorkload(args.workload, args.seed, &w)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        usage();
        return 2;
    }
    Tally tally;
    const std::vector<Metric> metrics =
        args.trace ? perLayer(w, args, &tally) : endToEnd(w, args, &tally);
    for (const auto &e : tally.errors)
        std::fprintf(stderr, "check failed: %s\n", e.c_str());
    std::fflush(stderr);
    printResult(tally, metrics);
    return tally.errors.empty() ? 0 : 1;
}
