/**
 * @file
 * Service-level-objective helpers.
 *
 * The paper sets the SLO to 5x the average request execution time in a
 * low-load system (§5.1) and defines throughput as the highest load a
 * system sustains without violating the P99 TTFT SLO (§5.2.2).
 */

#ifndef CHAMELEON_SERVING_SLO_H
#define CHAMELEON_SERVING_SLO_H

#include "model/adapter.h"
#include "model/cost_model.h"
#include "serving/metrics.h"
#include "simkit/time.h"
#include "workload/trace.h"

namespace chameleon::serving {

/**
 * Mean isolated (run-alone) end-to-end latency over a trace, from the
 * cost model; the basis of both the SLO and per-request slowdowns.
 */
sim::SimTime meanIsolatedE2e(const workload::Trace &trace,
                             const model::CostModel &cost,
                             const model::AdapterPool *pool);

/**
 * Largest SLO multiplier: a mean isolated latency is at most one span
 * (sim::kMaxSpanSeconds, validate() bounds every request by it), so
 * 9000 of them stay below 9e18 microseconds, inside SimTime.
 */
inline constexpr double kMaxSloMultiplier =
    9e18 / (sim::kMaxSpanSeconds * static_cast<double>(sim::kSec));

/** Paper SLO: multiplier (default 5) times the mean isolated latency,
 * for a multiplier within [0, kMaxSloMultiplier]. */
sim::SimTime computeSlo(const workload::Trace &trace,
                        const model::CostModel &cost,
                        const model::AdapterPool *pool,
                        double multiplier = 5.0);

/** Per-request slowdown samples: observed E2E / isolated E2E (§3.3). */
sim::PercentileTracker slowdowns(const std::vector<RequestRecord> &records,
                                 const model::CostModel &cost,
                                 const model::AdapterPool *pool);

/**
 * Throughput knee: the largest load (from an ascending (rps, p99Ttft)
 * series) whose P99 TTFT stays at or under the SLO. Interpolates
 * linearly between the last compliant and first violating point.
 */
double throughputKnee(const std::vector<std::pair<double, double>> &rpsToP99,
                      double sloSeconds);

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SLO_H
