/**
 * @file
 * Figure 27 (extension) — heterogeneous GPU fleets.
 *
 * Goes beyond the paper's identical-replica clusters: the same
 * Chameleon system deployed on three four-replica fleets — all A40s,
 * a mixed A100-48/A40 fleet, and all A100-48s — under every routing
 * policy, at one fixed offered load. (The A100-48 carries the A40's
 * 48 GB, so the fleet axis isolates compute/bandwidth heterogeneity
 * from cache capacity.) The claims under test:
 *
 *  1. capacity-aware routing (JSQ/P2C/affinity weight queue depths by
 *     the replicas' nominal service rates) shifts load onto the fast
 *     replicas of a mixed fleet — the per-replica finished shares
 *     track the service-rate ratio — while capacity-blind round-robin
 *     splits evenly and queues behind the slow A40s;
 *  2. upgrading half the fleet's GPUs therefore already buys a large
 *     part of the all-A100 tail-latency improvement.
 *
 * The grid is a sweep::SweepRunner run over the `fleets` axis;
 * `examples/sweeps/hetero_fleet.json` reproduces it from the command
 * line in one chameleon_sweep invocation. Emits BENCH_hetero_fleet.json
 * for trend tracking.
 */

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "sweep/sweep_runner.h"

using namespace chameleon;

namespace {

constexpr double kTotalRps = 26.0;
constexpr double kTraceSeconds = 120.0;

/** chameleon x fleet mix x router at one fixed offered load. */
sweep::SweepSpec
gridSpec()
{
    sweep::SweepSpec sw;
    sw.name = "hetero_fleet";
    sw.systems = {"chameleon"};
    sw.loads = {kTotalRps};
    sw.fleets = {"a40x4", "a100-48x2+a40x2", "a100-48x4"};
    using routing::RouterPolicy;
    sw.routers = {RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue,
                  RouterPolicy::PowerOfTwoChoices,
                  RouterPolicy::AdapterAffinityCacheAware};
    sw.workload.durationSeconds = kTraceSeconds;
    sw.workload.adapters = 200;
    sw.workload.adapterPopularity = workload::Popularity::PowerLaw;
    sw.engine.model = model::llama7B();
    sw.engine.gpu = model::a40();
    return sw;
}

/** "410/415/119/96" — per-replica finished shares, replica order. */
std::string
shares(const std::vector<std::int64_t> &finished)
{
    std::string out;
    for (std::size_t i = 0; i < finished.size(); ++i) {
        if (i > 0)
            out += '/';
        out += std::to_string(finished[i]);
    }
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 27 — heterogeneous fleets: GPU mix x routing policy",
        "capacity-aware routing places work where the hardware can "
        "absorb it: on a mixed A100/A40 fleet the finished shares track "
        "the replicas' service-rate ratio and the tail TTFT approaches "
        "the all-A100 fleet, while round-robin queues behind the slow "
        "replicas");

    sweep::SweepRunner runner(gridSpec());
    const auto results = runner.run();

    std::printf("%-16s %-15s %9s %12s %12s %7s  %s\n", "fleet", "router",
                "finished", "p50ttft(s)", "p99ttft(s)", "hit%",
                "per-replica finished");
    for (const auto &result : results) {
        const auto &cell = result.cell;
        const auto &report = result.report;
        std::printf("%-16s %-15s %9lld %12.3f %12.3f %6.1f%%  %s\n",
                    cell.fleet.c_str(),
                    routing::routerPolicyName(cell.spec.cluster.router),
                    static_cast<long long>(report.stats.finished),
                    report.stats.ttft.p50(), report.stats.ttft.p99(),
                    100.0 * report.cacheHitRate,
                    shares(report.perReplicaFinished).c_str());
    }

    sweep::BenchJson json(runner.spec().name);
    sweep::SweepRunner::appendRows(json, results);
    json.write("BENCH_hetero_fleet.json");
    return 0;
}
