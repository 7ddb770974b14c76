/**
 * @file
 * Speculative shortest-job-first scheduler (the uServe policy [46]).
 *
 * Orders waiting requests by predicted output length and admits the
 * shortest first. An optional aging term bounds starvation: a request's
 * effective size shrinks as it waits. The paper runs SJF without
 * preemption, as do we (§3.3, §6).
 */

#ifndef CHAMELEON_SERVING_SJF_SCHEDULER_H
#define CHAMELEON_SERVING_SJF_SCHEDULER_H

#include <list>

#include "serving/scheduler.h"

namespace chameleon::serving {

/** Predicted-shortest-first admission. */
class SjfScheduler : public Scheduler
{
  public:
    /**
     * @param agingPerSecond tokens subtracted from a request's effective
     *        size per second of waiting (0 disables aging)
     */
    explicit SjfScheduler(double agingPerSecond = 0.0)
        : agingPerSecond_(agingPerSecond)
    {
    }

    const char *name() const override { return "sjf"; }

    void enqueue(LiveRequest *r) override { queue_.push_back(r); }
    void requeueFront(LiveRequest *r) override { queue_.push_front(r); }
    bool hasWaiting() const override { return !queue_.empty(); }
    std::size_t waitingCount() const override { return queue_.size(); }

    void selectAdmissions(AdmissionContext &ctx,
                          std::vector<LiveRequest *> &admitted) override;

    void waitingSnapshot(std::vector<LiveRequest *> &out) const override;

  private:
    double effectiveSize(const LiveRequest *r, sim::SimTime now) const;

    double agingPerSecond_;
    std::list<LiveRequest *> queue_;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SJF_SCHEDULER_H
