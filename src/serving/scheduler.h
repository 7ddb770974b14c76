/**
 * @file
 * Scheduler interface (iteration-level batch admission policy).
 *
 * On every iteration the engine asks the scheduler to move requests from
 * its wait queues into the batch. The scheduler expresses admissions by
 * calling AdmissionContext::tryReserve, which commits GPU resources
 * (KV pages + adapter residency) or reports the precise reason admission
 * is impossible — the distinction the Chameleon scheduler's opportunistic
 * bypass needs (§4.3.3).
 */

#ifndef CHAMELEON_SERVING_SCHEDULER_H
#define CHAMELEON_SERVING_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "serving/live_request.h"
#include "simkit/time.h"

namespace chameleon::serving {

/** Outcome of a reservation attempt during batch formation. */
enum class ReserveResult {
    Ok,              ///< Resources committed; request may join the batch.
    NoAdapterMemory, ///< Adapter cannot be made resident (even after
                     ///< evicting every idle cached adapter).
    NoKvMemory,      ///< KV pages unavailable.
    BatchFull,       ///< Engine per-iteration admission cap reached.
};

/** Engine-provided admission services for one scheduling cycle. */
struct AdmissionContext
{
    sim::SimTime now = 0;
    /** Prefill tokens still available this iteration. */
    std::int64_t prefillTokenBudget = 0;
    /** New-request slots still available this iteration. */
    int admissionSlots = 0;

    /** Commit resources for a request; engine-owned closure. */
    std::function<ReserveResult(LiveRequest *)> tryReserve;

    /**
     * Estimate when `bytes` of device memory will have been released by
     * currently-running requests (bypass guard, §4.3.3).
     */
    std::function<sim::SimTime(std::int64_t bytes)> estimateMemoryFree;

    /** Estimated execution time of a request (predicted length based). */
    std::function<sim::SimTime(const LiveRequest *)> estimateExecTime;

    /** Currently free device bytes. */
    std::function<std::int64_t()> freeBytes;

    /** Device bytes a running/prefilling request would free if evicted. */
    std::function<std::int64_t(const LiveRequest *)> heldBytes;

    /** Squash an admitted request for later re-execution (§4.3.3). */
    std::function<void(LiveRequest *)> squashForBypass;

    /** Record that an opportunistic bypass happened (statistics). */
    std::function<void()> noteBypass;
};

/**
 * Batch admission policy.
 *
 * The engine owns LiveRequest storage; schedulers hold non-owning
 * pointers while a request is in phase Waiting.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Policy name for reports. */
    virtual const char *name() const = 0;

    /** A request entered the wait queues. */
    virtual void enqueue(LiveRequest *r) = 0;

    /** A squashed/preempted request re-enters at the queue front. */
    virtual void requeueFront(LiveRequest *r) = 0;

    /** Any requests waiting? */
    virtual bool hasWaiting() const = 0;

    /** Number of waiting requests. */
    virtual std::size_t waitingCount() const = 0;

    /**
     * Select and reserve admissions for this iteration. Implementations
     * call ctx.tryReserve for each candidate; requests that reserve
     * successfully must be removed from the wait queues and appended,
     * in admission order, to `admitted` (a buffer the caller owns and
     * reuses, so a cycle allocates nothing).
     */
    virtual void selectAdmissions(AdmissionContext &ctx,
                                  std::vector<LiveRequest *> &admitted) = 0;

    /** A previously admitted request finished (quota return point). */
    virtual void onRequestFinished(LiveRequest *r) { (void)r; }

    /** End-of-iteration hook (periodic reconfiguration lives here). */
    virtual void onIterationEnd(sim::SimTime now) { (void)now; }

    /**
     * Append every waiting request to `out` (a caller-owned buffer);
     * their adapters are the prefetch targets.
     */
    virtual void waitingSnapshot(std::vector<LiveRequest *> &out) const = 0;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SCHEDULER_H
