/**
 * @file
 * FIFO scheduler: the S-LoRA baseline policy (§3.3).
 *
 * Requests are admitted strictly in arrival order; the first request
 * that cannot reserve resources blocks everything behind it. This is
 * the head-of-line blocking behaviour the paper characterises.
 */

#ifndef CHAMELEON_SERVING_FIFO_SCHEDULER_H
#define CHAMELEON_SERVING_FIFO_SCHEDULER_H

#include <deque>

#include "serving/scheduler.h"

namespace chameleon::serving {

/** Strict arrival-order admission. */
class FifoScheduler : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

    void enqueue(LiveRequest *r) override { queue_.push_back(r); }
    void requeueFront(LiveRequest *r) override { queue_.push_front(r); }
    bool hasWaiting() const override { return !queue_.empty(); }
    std::size_t waitingCount() const override { return queue_.size(); }

    void selectAdmissions(AdmissionContext &ctx,
                          std::vector<LiveRequest *> &admitted) override;

    void waitingSnapshot(std::vector<LiveRequest *> &out) const override;

  private:
    std::deque<LiveRequest *> queue_;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_FIFO_SCHEDULER_H
