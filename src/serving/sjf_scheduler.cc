#include "serving/sjf_scheduler.h"

#include <algorithm>

namespace chameleon::serving {

double
SjfScheduler::effectiveSize(const LiveRequest *r, sim::SimTime now) const
{
    const double waited = sim::toSeconds(now - r->arrival);
    return static_cast<double>(r->predictedOutput) -
           agingPerSecond_ * waited;
}

void
SjfScheduler::selectAdmissions(AdmissionContext &ctx,
                        std::vector<LiveRequest *> &admitted)
{
    while (!queue_.empty() && ctx.admissionSlots > 0 &&
           ctx.prefillTokenBudget > 0) {
        // Pick the waiting request with the smallest effective size.
        auto best = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
            if (effectiveSize(*it, ctx.now) < effectiveSize(*best, ctx.now))
                best = it;
        }
        LiveRequest *r = *best;
        if (ctx.tryReserve(r) != ReserveResult::Ok)
            break; // still one logical queue: shortest job blocks
        queue_.erase(best);
        admitted.push_back(r);
        ctx.prefillTokenBudget -= r->req.inputTokens;
        --ctx.admissionSlots;
    }
}

void
SjfScheduler::waitingSnapshot(std::vector<LiveRequest *> &out) const
{
    out.insert(out.end(), queue_.begin(), queue_.end());
}

} // namespace chameleon::serving
