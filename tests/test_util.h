/**
 * @file
 * Shared helpers for serving/chameleon tests: tiny engine builders,
 * fake admission contexts, and request factories.
 */

#ifndef CHAMELEON_TESTS_TEST_UTIL_H
#define CHAMELEON_TESTS_TEST_UTIL_H

#include <memory>
#include <vector>

#include "chameleon/system.h"
#include "model/adapter.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "predict/length_predictor.h"
#include "serving/engine.h"
#include "serving/fifo_scheduler.h"
#include "serving/live_request.h"
#include "serving/scheduler.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/simulator.h"
#include "workload/request.h"

namespace chameleon::testutil {

/** A LiveRequest suitable for standalone scheduler tests. */
inline serving::LiveRequest
liveRequest(std::int64_t id, std::int64_t input, std::int64_t predicted,
            model::AdapterId adapter = model::kNoAdapter,
            std::int64_t adapterBytes = 0, int rank = 0)
{
    serving::LiveRequest r;
    r.req.id = id;
    r.req.inputTokens = input;
    r.req.outputTokens = predicted;
    r.req.adapter = adapter;
    r.predictedOutput = predicted;
    r.adapterBytes = adapterBytes;
    r.rank = rank;
    return r;
}

/** Admission context that accepts everything (or a scripted subset). */
struct FakeAdmission
{
    serving::AdmissionContext ctx;
    std::vector<serving::LiveRequest *> reserved;
    /** Requests that must be refused and with which result. */
    serving::LiveRequest *refuse = nullptr;
    serving::ReserveResult refuseWith = serving::ReserveResult::NoKvMemory;

    FakeAdmission()
    {
        ctx.now = 0;
        ctx.prefillTokenBudget = 1 << 20;
        ctx.admissionSlots = 1 << 20;
        ctx.tryReserve = [this](serving::LiveRequest *r) {
            if (r == refuse)
                return refuseWith;
            reserved.push_back(r);
            return serving::ReserveResult::Ok;
        };
        ctx.estimateMemoryFree = [](std::int64_t) {
            return chameleon::sim::kTimeNever;
        };
        ctx.estimateExecTime = [](const serving::LiveRequest *) {
            return chameleon::sim::fromSeconds(1.0);
        };
        ctx.freeBytes = [] { return std::int64_t{1} << 40; };
        ctx.heldBytes = [](const serving::LiveRequest *) {
            return std::int64_t{0};
        };
        ctx.squashForBypass = [](serving::LiveRequest *) {};
        ctx.noteBypass = [] {};
    }
};

/** Run one admission cycle; the admitted requests, in order. */
inline std::vector<serving::LiveRequest *>
admit(serving::Scheduler &sched, serving::AdmissionContext &ctx)
{
    std::vector<serving::LiveRequest *> admitted;
    sched.selectAdmissions(ctx, admitted);
    return admitted;
}

/** A fully wired engine with FIFO scheduling and baseline adapters. */
struct BaselineEngine
{
    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), 10};
    predict::LengthPredictor predictor{1.0}; // perfect predictions
    std::unique_ptr<serving::ServingEngine> engine;

    explicit BaselineEngine(serving::EngineConfig cfg = defaultConfig())
    {
        engine = std::make_unique<serving::ServingEngine>(
            simulator, cfg, &pool,
            std::make_unique<serving::FifoScheduler>(), &predictor);
        engine->setAdapterManager(
            std::make_unique<serving::SLoraAdapterManager>(
                pool, engine->memory(), engine->pcieLink()));
    }

    static serving::EngineConfig
    defaultConfig()
    {
        serving::EngineConfig cfg;
        cfg.model = model::llama7B();
        cfg.gpu = model::a40();
        return cfg;
    }
};

} // namespace chameleon::testutil

#endif // CHAMELEON_TESTS_TEST_UTIL_H
