#include "serving/slo.h"

#include "simkit/check.h"

namespace chameleon::serving {

using sim::SimTime;

namespace {

SimTime
isolatedE2eFor(std::int64_t input, std::int64_t output, model::AdapterId id,
               model::IsolatedLatency &isolated,
               const model::AdapterPool *pool)
{
    int rank = 0;
    std::int64_t bytes = 0;
    if (id != model::kNoAdapter) {
        CHM_CHECK(pool != nullptr, "adapter request without pool");
        rank = pool->spec(id).rank;
        bytes = pool->spec(id).bytes;
    }
    return isolated.e2e(input, output, rank, bytes,
                        /*includeLoad=*/rank > 0);
}

} // namespace

SimTime
meanIsolatedE2e(const workload::Trace &trace, const model::CostModel &cost,
                const model::AdapterPool *pool)
{
    CHM_CHECK(!trace.empty(), "trace must be non-empty");
    model::IsolatedLatency isolated(cost);
    double total_s = 0.0;
    for (const auto &r : trace.requests()) {
        total_s += sim::toSeconds(isolatedE2eFor(
            r.inputTokens, r.outputTokens, r.adapter, isolated, pool));
    }
    return sim::fromSeconds(total_s /
                            static_cast<double>(trace.size()));
}

SimTime
computeSlo(const workload::Trace &trace, const model::CostModel &cost,
           const model::AdapterPool *pool, double multiplier)
{
    return static_cast<SimTime>(
        multiplier *
        static_cast<double>(meanIsolatedE2e(trace, cost, pool)));
}

sim::PercentileTracker
slowdowns(const std::vector<RequestRecord> &records,
          const model::CostModel &cost, const model::AdapterPool *pool)
{
    model::IsolatedLatency isolated(cost);
    sim::PercentileTracker out;
    for (const auto &rec : records) {
        const SimTime iso = isolatedE2eFor(rec.inputTokens, rec.outputTokens,
                                           rec.adapter, isolated, pool);
        CHM_CHECK(iso > 0, "isolated latency must be positive");
        out.add(static_cast<double>(rec.e2e) / static_cast<double>(iso));
    }
    return out;
}

double
throughputKnee(const std::vector<std::pair<double, double>> &rpsToP99,
               double sloSeconds)
{
    CHM_CHECK(!rpsToP99.empty(), "need at least one sweep point");
    double lastGoodRps = 0.0;
    double lastGoodP99 = 0.0;
    bool any_good = false;
    for (const auto &[rps, p99] : rpsToP99) {
        if (p99 <= sloSeconds) {
            lastGoodRps = rps;
            lastGoodP99 = p99;
            any_good = true;
        } else if (any_good) {
            // Interpolate between the last compliant point and this one.
            const double frac =
                (sloSeconds - lastGoodP99) / (p99 - lastGoodP99);
            return lastGoodRps + frac * (rps - lastGoodRps);
        } else {
            return rps; // violates from the very first point
        }
    }
    return lastGoodRps; // compliant across the entire sweep
}

} // namespace chameleon::serving
