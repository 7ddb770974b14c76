/**
 * @file
 * Per-layer host probes. Each one replays a run's own inputs through a
 * layer's public functions, from outside the program, and returns the
 * host cost per call. None of them touches the run that produced the
 * inputs, so a traced run keeps the untraced run's event stream.
 */

#ifndef CHAMELEON_PERFBENCH_PROBES_H
#define CHAMELEON_PERFBENCH_PROBES_H

#include <cstdint>

#include "chameleon/system_spec.h"
#include "model/adapter.h"
#include "model/cost_model.h"
#include "routing/router.h"
#include "serving/metrics.h"
#include "workload/trace.h"

namespace perfbench {

/**
 * simkit: dispatch `events` events through a fresh Simulator as
 * `width` self-rescheduling chains (scheduleAt / runUntil); ns/event.
 */
double eventReplayNs(std::uint64_t events, std::size_t width);

/** model: CostModel::isolatedE2e over the trace's requests; ns/call. */
double isolatedE2eNs(const chameleon::model::CostModel &cost,
                     const chameleon::workload::Trace &trace,
                     const chameleon::model::AdapterPool *pool);

/** model: CostModel::decodeIterTime at a batch of `batch`; ns/call. */
double decodeIterNs(const chameleon::model::CostModel &cost,
                    const chameleon::workload::Trace &trace,
                    const chameleon::model::AdapterPool *pool, int batch);

/**
 * gpu: per-token KvCache::tryReserve growth and release of the trace's
 * requests, `batch` requests in flight at a time; ns/call.
 */
double kvReserveNs(std::int64_t kvBytesPerToken,
                   const chameleon::workload::Trace &trace, int batch);

/**
 * routing: a fresh makeRouter policy of the spec routing the trace's
 * requests against `view` (the finished cluster); ns/decision.
 */
double routeNs(const chameleon::core::SystemSpec &spec,
               const chameleon::workload::Trace &trace,
               const chameleon::routing::ClusterView &view);

/** chameleon: chooseClusters (MLQ's K-means) on output lengths; ms. */
double kmeansMs(const std::vector<chameleon::serving::RequestRecord> &records);

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_PROBES_H
