/**
 * @file
 * End-to-end integration tests over the Runner facade: every registered
 * system runs a common trace to completion; cross-system invariants
 * from the paper's evaluation hold directionally.
 */

#include <gtest/gtest.h>

#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "serving/slo.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

struct Env
{
    model::AdapterPool pool{model::llama7B(), 50};
    workload::Trace trace;

    explicit Env(double rps = 8.0, double seconds = 60.0)
    {
        auto wl = workload::splitwiseLike();
        wl.rps = rps;
        wl.durationSeconds = seconds;
        wl.numAdapters = 50;
        workload::TraceGenerator gen(wl, &pool);
        trace = gen.generate();
    }

    /** Registry spec stamped with the test hardware. */
    core::SystemSpec spec(const std::string &system) const
    {
        auto spec = core::SystemRegistry::global().lookup(system);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        return spec;
    }

    core::RunReport run(const std::string &system) const
    {
        return core::runSpec(spec(system), &pool, trace);
    }
};

std::string
testName(const std::string &system)
{
    std::string name = system;
    for (auto &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace

class SystemNameTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SystemNameTest, RunsTraceToCompletion)
{
    Env env(6.0, 40.0);
    const auto result = env.run(GetParam());
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    EXPECT_GT(result.stats.ttft.p50(), 0.0);
    EXPECT_GT(result.stats.e2e.p99(), result.stats.ttft.p99());
    // Every finished request produced a record.
    EXPECT_EQ(result.stats.records.size(), env.trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, SystemNameTest,
    ::testing::Values("slora", "slora-sjf", "slora-chunked",
                      "chameleon-nocache", "chameleon-nosched",
                      "chameleon", "chameleon-lru",
                      "chameleon-fairshare", "chameleon-gdsf",
                      "chameleon-prefetch", "chameleon-static",
                      "chameleon-output-only", "chameleon-degree1"),
    [](const auto &info) { return testName(info.param); });

/** Composed (grammar) systems run end-to-end like presets. */
class ComposedSystemTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ComposedSystemTest, RunsTraceToCompletion)
{
    Env env(6.0, 40.0);
    const auto result = env.run(GetParam());
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ComposedSystemTest,
    ::testing::Values("chameleon+gdsf+prefetch", "slora+cache",
                      "chameleon+sjf", "chameleon+history",
                      "slora+chunked128+sjf"),
    [](const auto &info) { return testName(info.param); });

TEST(SystemIntegration, DeterministicResults)
{
    Env env(6.0, 30.0);
    const auto a = env.run("chameleon");
    const auto b = env.run("chameleon");
    EXPECT_EQ(a.stats.ttft.sorted(), b.stats.ttft.sorted());
    EXPECT_EQ(a.pcieBytes, b.pcieBytes);
}

TEST(SystemIntegration, CacheRaisesHitRateAndCutsPcieTraffic)
{
    Env env(8.0, 60.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_GT(cham.cacheHitRate, base.cacheHitRate + 0.15);
    EXPECT_LT(cham.pcieBytes, base.pcieBytes);
}

TEST(SystemIntegration, CacheCutsCriticalPathLoading)
{
    // Fig. 14: most Chameleon requests hit the cache and pay zero
    // loading latency; the baseline pays more, more often.
    Env env(8.0, 60.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_LE(cham.stats.loadStall.mean(), base.stats.loadStall.mean());
}

TEST(SystemIntegration, ChameleonImprovesTailAtHighLoad)
{
    Env env(10.0, 90.0);
    const auto base = env.run("slora");
    const auto cham = env.run("chameleon");
    EXPECT_LT(cham.stats.ttft.p99(), base.stats.ttft.p99());
    EXPECT_LT(cham.stats.ttft.p50(), base.stats.ttft.p50());
}

TEST(SystemIntegration, MlqFormsMultipleQueues)
{
    Env env(8.0, 60.0);
    const auto result = env.run("chameleon");
    EXPECT_GE(result.mlqQueues, 2);
}

TEST(SystemIntegration, SquashRateStaysBounded)
{
    // §4.3.3: at most ~5% of requests get squashed.
    Env env(10.0, 90.0);
    const auto cham = env.run("chameleon");
    EXPECT_LE(static_cast<double>(cham.stats.squashes),
              0.05 * static_cast<double>(cham.stats.finished) + 1.0);
}

TEST(SystemIntegration, BaseOnlyWorkloadRuns)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 5.0;
    wl.durationSeconds = 30.0;
    wl.numAdapters = 0;
    workload::TraceGenerator gen(wl, nullptr);
    const auto trace = gen.generate();
    auto spec = core::SystemRegistry::global().lookup("slora");
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    const auto result = core::runSpec(spec, nullptr, trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(trace.size()));
    EXPECT_EQ(result.pcieBytes, 0);
}

TEST(SystemIntegration, SloAndSlowdownHelpers)
{
    Env env(6.0, 40.0);
    model::CostModel cost(model::llama7B(), model::a40());
    const auto slo = serving::computeSlo(env.trace, cost, &env.pool);
    EXPECT_GT(sim::toSeconds(slo), 1.0);
    const auto result = env.run("chameleon");
    auto sd = serving::slowdowns(result.stats.records, cost, &env.pool);
    EXPECT_GE(sd.percentile(1.0), 0.9); // can't beat run-alone by much
    EXPECT_GE(sd.p99(), sd.p50());
}

TEST(Throughput, KneeFinderInterpolates)
{
    const std::vector<std::pair<double, double>> sweep{
        {6.0, 1.0}, {8.0, 2.0}, {10.0, 6.0}, {12.0, 20.0}};
    // SLO of 4 s sits between 8 RPS (2 s) and 10 RPS (6 s).
    EXPECT_NEAR(serving::throughputKnee(sweep, 4.0), 9.0, 1e-9);
    // SLO below the first point: that load is already a violation.
    EXPECT_DOUBLE_EQ(serving::throughputKnee(sweep, 0.5), 6.0);
    // SLO above everything: compliant at the top of the sweep.
    EXPECT_DOUBLE_EQ(serving::throughputKnee(sweep, 100.0), 12.0);
}

TEST(SystemIntegration, HistoryPredictorVariantRuns)
{
    Env env(8.0, 60.0);
    auto spec = env.spec("chameleon");
    spec.predictor.kind = core::PredictorKind::History;
    const auto result = core::runSpec(spec, &env.pool, env.trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    // Online predictions are rougher than the oracle's: under-
    // predictions may cost preemptions, but the run must stay sane.
    EXPECT_LE(result.stats.preemptions, result.stats.finished / 10);
}

TEST(SystemIntegration, BypassDisabledStillCompletes)
{
    Env env(9.0, 60.0);
    auto spec = env.spec("chameleon");
    spec.scheduler.bypass = false;
    const auto result = core::runSpec(spec, &env.pool, env.trace);
    EXPECT_EQ(result.stats.finished,
              static_cast<std::int64_t>(env.trace.size()));
    EXPECT_EQ(result.stats.bypasses, 0);
    EXPECT_EQ(result.stats.squashes, 0);
}

TEST(SystemIntegration, UtilisationAccountingConsistent)
{
    Env env(8.0, 60.0);
    const auto result = env.run("chameleon");
    const auto &s = result.stats;
    EXPECT_GT(s.busyTime, 0);
    EXPECT_GT(s.iterations, 0);
    // Every request's input tokens were prefilled exactly once (no
    // squashes in this run), and one decode token per generated token
    // beyond the first.
    std::int64_t expect_prefill = 0;
    std::int64_t expect_decode = 0;
    for (const auto &r : env.trace.requests()) {
        expect_prefill += r.inputTokens;
        expect_decode += r.outputTokens - 1;
    }
    if (s.squashes == 0 && s.preemptions == 0) {
        EXPECT_EQ(s.prefillTokens, expect_prefill);
        EXPECT_EQ(s.decodeTokens, expect_decode);
    }
}
