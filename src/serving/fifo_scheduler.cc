#include "serving/fifo_scheduler.h"

namespace chameleon::serving {

void
FifoScheduler::selectAdmissions(AdmissionContext &ctx,
                        std::vector<LiveRequest *> &admitted)
{
    while (!queue_.empty() && ctx.admissionSlots > 0 &&
           ctx.prefillTokenBudget > 0) {
        LiveRequest *head = queue_.front();
        const ReserveResult res = ctx.tryReserve(head);
        if (res != ReserveResult::Ok)
            break; // head-of-line blocking: nothing behind may pass
        queue_.pop_front();
        admitted.push_back(head);
        ctx.prefillTokenBudget -= head->req.inputTokens;
        --ctx.admissionSlots;
    }
}

void
FifoScheduler::waitingSnapshot(std::vector<LiveRequest *> &out) const
{
    out.insert(out.end(), queue_.begin(), queue_.end());
}

} // namespace chameleon::serving
