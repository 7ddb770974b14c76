#include "probes.h"

#include <algorithm>
#include <vector>

#include "chameleon/kmeans.h"
#include "chameleon/mlq_scheduler.h"
#include "gpu/gpu_memory.h"
#include "gpu/kv_cache.h"
#include "simkit/check.h"
#include "simkit/simulator.h"
#include "span_log.h"

namespace perfbench {

using namespace chameleon;

namespace {

// Caps keep each probe well under a second on the largest trace; the
// per-call figure needs only enough calls to swamp the clock's grain.
constexpr std::size_t kMaxIsolatedCalls = 20000;
constexpr int kDecodeCalls = 200000;
constexpr std::int64_t kMaxKvCalls = 4000000;
constexpr std::size_t kMaxRouteCalls = 200000;

/** Keeps probe results observable so no call can be elided. */
volatile std::int64_t g_sink = 0;

double
perCallNs(Clock::time_point start, std::int64_t calls)
{
    return 1e9 * secondsSince(start) /
           static_cast<double>(std::max<std::int64_t>(calls, 1));
}

struct EventChain
{
    sim::Simulator *sim = nullptr;
    std::uint64_t *remaining = nullptr;
    std::uint64_t state = 0;
};

void
fireChain(EventChain *chain)
{
    if (*chain->remaining == 0)
        return;
    --*chain->remaining;
    chain->state = chain->state * 6364136223846793005ull +
                   1442695040888963407ull;
    const sim::SimTime delay =
        1 + static_cast<sim::SimTime>((chain->state >> 33) % 2000);
    chain->sim->scheduleAt(chain->sim->now() + delay,
                           [chain] { fireChain(chain); });
}

int
rankOf(const workload::Request &r, const model::AdapterPool *pool)
{
    return r.adapter == model::kNoAdapter || pool == nullptr
               ? 0
               : pool->spec(r.adapter).rank;
}

} // namespace

double
eventReplayNs(std::uint64_t events, std::size_t width)
{
    width = std::max<std::size_t>(1, std::min<std::size_t>(width, events));
    sim::Simulator sim;
    std::uint64_t remaining = events;
    std::vector<EventChain> chains(width);
    for (std::size_t i = 0; i < width; ++i)
        chains[i] = EventChain{&sim, &remaining, i + 1};
    const auto start = Clock::now();
    for (auto &chain : chains)
        fireChain(&chain);
    while (sim.pendingEvents() > 0)
        sim.runUntil(sim.now() + sim::kSec);
    const double ns = perCallNs(
        start, static_cast<std::int64_t>(sim.eventsDispatched()));
    CHM_CHECK(sim.eventsDispatched() == events,
              "event replay dispatched " << sim.eventsDispatched()
                                         << " of " << events);
    return ns;
}

double
isolatedE2eNs(const model::CostModel &cost, const workload::Trace &trace,
              const model::AdapterPool *pool)
{
    const std::size_t n = std::min(trace.size(), kMaxIsolatedCalls);
    std::int64_t sum = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const auto &r = trace[i];
        const int rank = rankOf(r, pool);
        const std::int64_t bytes = rank > 0 ? pool->spec(r.adapter).bytes : 0;
        sum += cost.isolatedE2e(r.inputTokens, r.outputTokens, rank, bytes,
                                rank > 0);
    }
    const double ns = perCallNs(start, static_cast<std::int64_t>(n));
    g_sink = g_sink + sum;
    return ns;
}

double
decodeIterNs(const model::CostModel &cost, const workload::Trace &trace,
             const model::AdapterPool *pool, int batch)
{
    std::vector<model::DecodeSlot> slots;
    for (std::size_t i = 0;
         i < trace.size() && slots.size() < static_cast<std::size_t>(batch);
         ++i) {
        const auto &r = trace[i];
        slots.push_back(model::DecodeSlot{
            r.inputTokens + r.outputTokens / 2, rankOf(r, pool)});
    }
    std::int64_t sum = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kDecodeCalls; ++i)
        sum += cost.decodeIterTime(slots);
    const double ns = perCallNs(start, kDecodeCalls);
    g_sink = g_sink + sum;
    return ns;
}

double
kvReserveNs(std::int64_t kvBytesPerToken, const workload::Trace &trace,
            int batch)
{
    // Capacity far above any batch: the probe times bookkeeping, not
    // admission failures.
    gpu::GpuMemory mem(std::int64_t{1} << 60, 0, 0);
    gpu::KvCache kv(mem, kvBytesPerToken);
    const std::size_t group = static_cast<std::size_t>(std::max(batch, 1));
    std::int64_t calls = 0;
    std::vector<std::int64_t> tokens;
    const auto start = Clock::now();
    for (std::size_t first = 0; first < trace.size() && calls < kMaxKvCalls;
         first += group) {
        const std::size_t last = std::min(trace.size(), first + group);
        tokens.assign(last - first, 0);
        // Admit with the prompt, then grow one token per decode step
        // round-robin across the batch, releasing as requests finish.
        bool live = true;
        for (std::int64_t step = 0; live; ++step) {
            live = false;
            for (std::size_t i = first; i < last; ++i) {
                const auto &r = trace[i];
                if (step > r.outputTokens)
                    continue;
                live = true;
                ++calls;
                if (step == r.outputTokens) {
                    kv.release(r.id);
                    continue;
                }
                CHM_CHECK(kv.tryReserve(r.id, r.inputTokens + step),
                          "kv probe reservation failed");
            }
        }
    }
    return perCallNs(start, calls);
}

double
routeNs(const core::SystemSpec &spec, const workload::Trace &trace,
        const routing::ClusterView &view)
{
    auto router =
        routing::makeRouter(spec.cluster.router, spec.cluster.routerConfig);
    router->onReplicaCountChanged(view.replicaCount());
    const std::size_t n = std::min(trace.size(), kMaxRouteCalls);
    std::size_t sum = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        sum += router->route(trace[i], view);
    const double ns = perCallNs(start, static_cast<std::int64_t>(n));
    g_sink = g_sink + static_cast<std::int64_t>(sum);
    return ns;
}

double
kmeansMs(const std::vector<serving::RequestRecord> &records)
{
    std::vector<double> lengths;
    lengths.reserve(records.size());
    for (const auto &rec : records)
        lengths.push_back(static_cast<double>(rec.outputTokens));
    const auto start = Clock::now();
    const core::KMeansResult result =
        core::chooseClusters(lengths, core::MlqConfig{}.kMax);
    const double ms = 1e3 * secondsSince(start);
    g_sink = g_sink + static_cast<std::int64_t>(result.centroids.size());
    return ms;
}

} // namespace perfbench
