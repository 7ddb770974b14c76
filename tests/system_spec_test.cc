/**
 * @file
 * Tests for the SystemSpec / SystemRegistry / Runner redesign:
 *  - preset equivalence: every legacy SystemKind wiring, rebuilt by
 *    hand exactly as the old monolithic switch did, produces
 *    bit-identical seeded stats to the new SystemSpec path;
 *  - registry round-trip (name -> spec -> name) and the composition
 *    grammar;
 *  - SystemSpec::validate() rejections with actionable messages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "chameleon/cache_manager.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "predict/length_predictor.h"
#include "serving/fifo_scheduler.h"
#include "serving/sjf_scheduler.h"
#include "serving/slora_adapter_manager.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

const std::vector<std::string> &
legacyKinds()
{
    static const std::vector<std::string> kinds{
        "slora",
        "slora-sjf",
        "slora-chunked",
        "chameleon-nocache",
        "chameleon-nosched",
        "chameleon",
        "chameleon-lru",
        "chameleon-fairshare",
        "chameleon-gdsf",
        "chameleon-prefetch",
        "chameleon-static",
        "chameleon-output-only",
        "chameleon-degree1",
    };
    return kinds;
}

bool
legacyUsesMlq(const std::string &kind)
{
    return kind != "slora" && kind != "slora-sjf" &&
           kind != "slora-chunked" && kind != "chameleon-nosched";
}

bool
legacyUsesCache(const std::string &kind)
{
    return kind != "slora" && kind != "slora-sjf" &&
           kind != "slora-chunked" && kind != "chameleon-nocache";
}

/**
 * The old System wiring, transliterated from the deleted SystemKind
 * switch in system.cc: FIFO/SJF vs MLQ, S-LoRA manager vs cache, the
 * per-kind eviction/WRS/static/prefetch tweaks, submitTrace directly
 * on the engine. This is the reference the new path must match bit
 * for bit.
 */
struct LegacySystem
{
    sim::Simulator sim;
    predict::LengthPredictor predictor{0.8, 0xC0FFEE};
    std::unique_ptr<serving::ServingEngine> engine;
    core::MlqScheduler *mlq = nullptr;

    LegacySystem(const std::string &kind, const model::AdapterPool &pool)
    {
        serving::EngineConfig ecfg;
        ecfg.model = model::llama7B();
        ecfg.gpu = model::a40();
        ecfg.predictedReservation = legacyUsesMlq(kind);
        if (kind == "slora-chunked")
            ecfg.prefillChunkTokens = 64;

        std::unique_ptr<serving::Scheduler> scheduler;
        if (!legacyUsesMlq(kind)) {
            if (kind == "slora-sjf")
                scheduler = std::make_unique<serving::SjfScheduler>();
            else
                scheduler = std::make_unique<serving::FifoScheduler>();
        } else {
            core::MlqConfig mcfg;
            mcfg.sloSeconds = 5.0;
            mcfg.refreshPeriod = 300 * sim::kSec;
            mcfg.kvBytesPerToken = ecfg.model.kvBytesPerToken();
            const std::int64_t pool_bytes =
                ecfg.gpu.memBytes - ecfg.model.weightsBytes() -
                ecfg.workspacePerGpu;
            mcfg.totalTokens = pool_bytes / mcfg.kvBytesPerToken;
            if (kind == "chameleon-static")
                mcfg.dynamic = false;
            if (kind == "chameleon-output-only")
                mcfg.wrsForm = core::WrsForm::OutputOnly;
            if (kind == "chameleon-degree1")
                mcfg.wrsForm = core::WrsForm::Degree1;
            auto owned =
                std::make_unique<core::MlqScheduler>(mcfg, &pool);
            mlq = owned.get();
            scheduler = std::move(owned);
        }

        engine = std::make_unique<serving::ServingEngine>(
            sim, ecfg, &pool, std::move(scheduler), &predictor);

        if (!legacyUsesCache(kind)) {
            engine->setAdapterManager(
                std::make_unique<serving::SLoraAdapterManager>(
                    pool, engine->memory(), engine->pcieLink(),
                    /*prefetchEnabled=*/true));
        } else {
            core::CacheConfig ccfg;
            if (kind == "chameleon-lru")
                ccfg.eviction = core::EvictionKind::Lru;
            else if (kind == "chameleon-fairshare")
                ccfg.eviction = core::EvictionKind::FairShare;
            else if (kind == "chameleon-gdsf")
                ccfg.eviction = core::EvictionKind::Gdsf;
            ccfg.predictivePrefetch = kind == "chameleon-prefetch";
            ccfg.predictiveTopK = 8;
            engine->setAdapterManager(std::make_unique<core::CacheManager>(
                pool, engine->memory(), engine->pcieLink(),
                engine->costModel(), ccfg));
        }
    }

    core::RunReport run(const workload::Trace &trace)
    {
        engine->submitTrace(trace);
        sim.run();
        engine->finalize();
        core::RunReport report;
        report.stats = engine->stats();
        report.pcieBytes = engine->pcieLink().totalBytes();
        report.pcieTransfers = engine->pcieLink().totalTransfers();
        report.cacheHitRate = report.stats.cacheHitRate();
        if (auto *cache = dynamic_cast<core::CacheManager *>(
                &engine->adapterManager()))
            report.cacheEvictions = cache->evictions();
        if (mlq != nullptr)
            report.mlqQueues = mlq->queueCount();
        return report;
    }
};

workload::Trace
seededTrace(const model::AdapterPool &pool, std::uint64_t seed)
{
    auto wl = workload::splitwiseLike();
    wl.rps = 8.0;
    wl.durationSeconds = 45.0;
    wl.numAdapters = 50;
    wl.seed = seed;
    workload::TraceGenerator gen(wl, &pool);
    return gen.generate();
}

model::AdapterPool &
testPool()
{
    static model::AdapterPool pool(model::llama7B(), 50);
    return pool;
}

core::SystemSpec
testbedSpec(const std::string &system)
{
    auto spec = core::SystemRegistry::global().lookup(system);
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Preset equivalence: legacy wiring vs the SystemSpec path.
// ---------------------------------------------------------------------

class PresetEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetEquivalence, LegacyWiringBitIdentical)
{
    const auto &kind = GetParam();
    const auto trace = seededTrace(testPool(), 42);

    LegacySystem legacy(kind, testPool());
    const auto expect = legacy.run(trace);
    const auto got =
        core::runSpec(testbedSpec(kind), &testPool(), trace);

    EXPECT_EQ(got.stats.finished, expect.stats.finished);
    EXPECT_EQ(got.stats.ttft.sorted(), expect.stats.ttft.sorted());
    EXPECT_EQ(got.stats.tbt.sorted(), expect.stats.tbt.sorted());
    EXPECT_EQ(got.stats.e2e.sorted(), expect.stats.e2e.sorted());
    EXPECT_EQ(got.stats.iterations, expect.stats.iterations);
    EXPECT_EQ(got.stats.preemptions, expect.stats.preemptions);
    EXPECT_EQ(got.stats.squashes, expect.stats.squashes);
    EXPECT_EQ(got.stats.bypasses, expect.stats.bypasses);
    EXPECT_EQ(got.stats.prefillTokens, expect.stats.prefillTokens);
    EXPECT_EQ(got.stats.decodeTokens, expect.stats.decodeTokens);
    EXPECT_EQ(got.pcieBytes, expect.pcieBytes);
    EXPECT_EQ(got.pcieTransfers, expect.pcieTransfers);
    EXPECT_EQ(got.cacheEvictions, expect.cacheEvictions);
    EXPECT_EQ(got.mlqQueues, expect.mlqQueues);
}

INSTANTIATE_TEST_SUITE_P(AllLegacyKinds, PresetEquivalence,
                         ::testing::ValuesIn(legacyKinds()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return name;
                         });

// ---------------------------------------------------------------------
// Registry: round-trip, presets, grammar, custom registration.
// ---------------------------------------------------------------------

TEST(SystemRegistry, AllLegacyKindsAreRegistered)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &kind : legacyKinds()) {
        EXPECT_TRUE(registry.has(kind)) << kind;
        EXPECT_FALSE(registry.description(kind).empty()) << kind;
    }
    EXPECT_GE(registry.names().size(), legacyKinds().size());
}

TEST(SystemRegistry, NameSpecNameRoundTrip)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names()) {
        const auto spec = registry.lookup(name);
        EXPECT_EQ(spec.name, name);
    }
    // Composed lookups carry their full grammar as the name.
    EXPECT_EQ(registry.lookup("chameleon+gdsf+prefetch").name,
              "chameleon+gdsf+prefetch");
}

TEST(SystemRegistry, PresetFunctionsMatchRegistryEntries)
{
    const auto &registry = core::SystemRegistry::global();
    const std::vector<std::pair<std::string, core::SystemSpec>> presets{
        {"slora", core::presets::slora()},
        {"slora-sjf", core::presets::sloraSjf()},
        {"slora-chunked", core::presets::sloraChunked()},
        {"chameleon-nocache", core::presets::chameleonNoCache()},
        {"chameleon-nosched", core::presets::chameleonNoSched()},
        {"chameleon", core::presets::chameleon()},
        {"chameleon-lru", core::presets::chameleonLru()},
        {"chameleon-fairshare", core::presets::chameleonFairShare()},
        {"chameleon-gdsf", core::presets::chameleonGdsf()},
        {"chameleon-prefetch", core::presets::chameleonPrefetch()},
        {"chameleon-static", core::presets::chameleonStatic()},
        {"chameleon-output-only", core::presets::chameleonOutputOnly()},
        {"chameleon-degree1", core::presets::chameleonDegree1()},
    };
    for (const auto &[name, preset] : presets) {
        const auto spec = registry.lookup(name);
        EXPECT_EQ(spec.name, preset.name) << name;
        EXPECT_EQ(spec.scheduler.policy, preset.scheduler.policy) << name;
        EXPECT_EQ(spec.scheduler.wrsForm, preset.scheduler.wrsForm)
            << name;
        EXPECT_EQ(spec.scheduler.dynamicQueues,
                  preset.scheduler.dynamicQueues)
            << name;
        EXPECT_EQ(spec.adapters.policy, preset.adapters.policy) << name;
        EXPECT_EQ(spec.adapters.eviction, preset.adapters.eviction)
            << name;
        EXPECT_EQ(spec.adapters.predictivePrefetch,
                  preset.adapters.predictivePrefetch)
            << name;
        EXPECT_EQ(spec.chunkedPrefill, preset.chunkedPrefill) << name;
    }
}

TEST(SystemRegistry, GrammarComposesAxes)
{
    const auto &registry = core::SystemRegistry::global();

    const auto composed = registry.lookup("chameleon+gdsf+prefetch");
    EXPECT_EQ(composed.adapters.eviction, core::EvictionKind::Gdsf);
    EXPECT_TRUE(composed.adapters.predictivePrefetch);
    EXPECT_EQ(composed.adapters.prefetchTopK, 8u);

    const auto wide = registry.lookup("chameleon+prefetch16");
    EXPECT_EQ(wide.adapters.prefetchTopK, 16u);

    const auto sjf = registry.lookup("slora+sjf+cache");
    EXPECT_EQ(sjf.scheduler.policy, core::SchedulerPolicy::Sjf);
    EXPECT_EQ(sjf.adapters.policy, core::AdapterPolicy::ChameleonCache);

    const auto chunked = registry.lookup("slora+chunked128");
    EXPECT_TRUE(chunked.chunkedPrefill);
    EXPECT_EQ(chunked.chunkTokens, 128);

    const auto history = registry.lookup("chameleon+history");
    EXPECT_EQ(history.predictor.kind, core::PredictorKind::History);
}

TEST(SystemRegistry, RejectsTwoModifiersOnOneAxis)
{
    // The later token would silently win under a name listing both.
    const auto &registry = core::SystemRegistry::global();
    for (const auto &[name, first, second] :
         std::vector<std::tuple<std::string, std::string, std::string>>{
             {"chameleon+wfq+drr", "+wfq", "+drr"},
             {"chameleon+gdsf+lru", "+gdsf", "+lru"},
             {"slora+prefetch+noprefetch", "+prefetch", "+noprefetch"},
             {"chameleon+history+bert", "+history", "+bert"}}) {
        std::string error;
        EXPECT_FALSE(registry.find(name, &error).has_value()) << name;
        EXPECT_NE(error.find(first), std::string::npos) << error;
        EXPECT_NE(error.find(second), std::string::npos) << error;
        EXPECT_NE(error.find("axis"), std::string::npos) << error;
    }
    // One token per axis still composes.
    EXPECT_TRUE(registry.find("chameleon+drr+lru+prefetch").has_value());
}

TEST(SystemRegistry, UnknownNamesFailWithActionableErrors)
{
    const auto &registry = core::SystemRegistry::global();

    std::string error;
    EXPECT_FALSE(registry.find("no-such-system", &error).has_value());
    EXPECT_NE(error.find("unknown system"), std::string::npos);
    EXPECT_NE(error.find("--list-systems"), std::string::npos);

    error.clear();
    EXPECT_FALSE(registry.find("chameleon+frobnicate", &error).has_value());
    EXPECT_NE(error.find("unknown system modifier"), std::string::npos);
    EXPECT_NE(error.find("gdsf"), std::string::npos); // lists known mods

    // Stray '+' (trailing or doubled) is a malformed name, not a
    // silent run of the base system.
    for (const char *malformed :
         {"chameleon+", "chameleon++gdsf", "chameleon+gdsf+"}) {
        error.clear();
        EXPECT_FALSE(registry.find(malformed, &error).has_value())
            << malformed;
        EXPECT_NE(error.find("empty modifier"), std::string::npos)
            << malformed;
    }
}

TEST(SystemRegistry, CustomRegistrationIsLookedUpAndListed)
{
    core::SystemRegistry registry; // fresh instance, presets included
    auto spec = registry.lookup("chameleon")
                    .withEviction(core::EvictionKind::Lru)
                    .withPrefetch(4);
    registry.add("my-system", spec, "custom test system");
    EXPECT_TRUE(registry.has("my-system"));
    const auto found = registry.lookup("my-system");
    EXPECT_EQ(found.name, "my-system"); // add() stamps the key
    EXPECT_EQ(found.adapters.eviction, core::EvictionKind::Lru);
    EXPECT_EQ(found.adapters.prefetchTopK, 4u);
    const auto names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "my-system"),
              names.end());
    // Custom names compose like built-ins.
    EXPECT_EQ(registry.lookup("my-system+gdsf").adapters.eviction,
              core::EvictionKind::Gdsf);
}

// ---------------------------------------------------------------------
// SystemSpec::validate() rejections.
// ---------------------------------------------------------------------

namespace {

bool
hasErrorContaining(const core::SystemSpec &spec, const std::string &text)
{
    for (const auto &error : spec.validate()) {
        if (error.find(text) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(SpecValidation, PresetsAndGrammarSpecsAreValid)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names())
        EXPECT_TRUE(registry.lookup(name).validate().empty()) << name;
    EXPECT_TRUE(registry.lookup("chameleon+gdsf+prefetch")
                    .validate()
                    .empty());
}

TEST(SpecValidation, RejectsNonPositiveReplicas)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 0;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas"));
    spec.cluster.replicas = -3;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas"));
}

TEST(SpecValidation, RejectsNonPowerOfTwoTpDegree)
{
    // The cost model would abort on these; validate() names them first.
    auto spec = core::presets::chameleon();
    for (const int tp : {1, 2, 4, 8}) {
        spec.engine.tpDegree = tp;
        EXPECT_TRUE(spec.validate().empty()) << tp;
    }
    spec.engine.tpDegree = 3;
    EXPECT_TRUE(hasErrorContaining(spec, "engine.tp_degree"));
    spec.engine.tpDegree = 1;
    spec.cluster.replicas = 2;
    spec.cluster.replicaEngines = {spec.engine, spec.engine};
    spec.cluster.replicaEngines[1].tpDegree = 6;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas[1].tp_degree"));
}

TEST(SpecValidation, RejectsNonPositiveChunkSize)
{
    auto spec = core::presets::sloraChunked();
    spec.chunkTokens = 0;
    EXPECT_TRUE(hasErrorContaining(spec, "chunk_tokens must be > 0"));
    spec.chunkTokens = -64;
    EXPECT_TRUE(hasErrorContaining(spec, "chunk_tokens must be > 0"));
}

TEST(SpecValidation, RejectsPrefetchTopKWithoutPrefetch)
{
    auto spec = core::presets::chameleon();
    spec.adapters.prefetchTopK = 8; // but predictivePrefetch is false
    EXPECT_TRUE(hasErrorContaining(spec, "without prefetch enabled"));

    auto zero = core::presets::chameleonPrefetch();
    zero.adapters.prefetchTopK = 0;
    EXPECT_TRUE(hasErrorContaining(zero, "prefetch_top_k"));
}

TEST(SpecValidation, RejectsEvictionWithoutCache)
{
    auto spec = core::presets::slora();
    spec.adapters.eviction = core::EvictionKind::Gdsf;
    EXPECT_TRUE(hasErrorContaining(spec, "requires the chameleon cache"));
    // The same spec with the cache enabled is fine.
    spec.adapters.policy = core::AdapterPolicy::ChameleonCache;
    EXPECT_TRUE(spec.validate().empty());
}

TEST(SpecValidation, RejectsBadPredictor)
{
    // The kind is an enum, so an unknown name fails at the parse.
    std::string error;
    EXPECT_FALSE(core::specFromJson(
                     R"({"predictor": {"kind": "crystal-ball"}})", &error)
                     .has_value());
    EXPECT_NE(error.find("predictor.kind"), std::string::npos) << error;
    EXPECT_NE(error.find("crystal-ball"), std::string::npos) << error;
    EXPECT_NE(error.find("history"), std::string::npos) << error;
    auto spec = core::presets::chameleon();
    spec.predictor.accuracy = 1.5;
    EXPECT_TRUE(hasErrorContaining(spec, "accuracy"));
}

TEST(SpecValidation, RejectsBadAutoscalerBounds)
{
    auto spec = core::presets::chameleon();
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 4;
    spec.cluster.autoscaler.maxReplicas = 2;
    EXPECT_TRUE(hasErrorContaining(spec, "max_replicas"));
}

TEST(SpecValidation, RejectsInvertedWatermarks)
{
    // The autoscaler constructor would abort on low >= high.
    auto spec = core::presets::chameleon();
    spec.cluster.autoscaler.lowWatermark = 30.0;
    EXPECT_TRUE(spec.validate().empty()) << "inert while autoscale is off";
    spec.cluster.autoscale = true;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.autoscaler.low_watermark"));
}

TEST(SpecValidation, RejectsAModelThatDoesNotFitItsGpus)
{
    // 70B weights (140 GB) abort the engine on one 48 GiB A40.
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama70B();
    spec.engine.gpu = model::a40();
    EXPECT_TRUE(hasErrorContaining(spec, "engine: llama-70b weights"));
    spec.engine.tpDegree = 4;
    EXPECT_TRUE(spec.validate().empty());
    // Each replica engine is checked on its own GPU.
    spec.cluster.replicas = 2;
    spec.cluster.replicaEngines = {spec.engine, spec.engine};
    spec.cluster.replicaEngines[1].tpDegree = 1;
    EXPECT_TRUE(hasErrorContaining(spec, "cluster.replicas[1]: llama-70b"));
}

TEST(SpecValidation, RejectsHardwareTooSlowForSimTime)
{
    // In its domain, but a transfer at this rate overflows SimTime.
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    ASSERT_TRUE(spec.validate().empty());
    spec.engine.gpu.pcieBandwidth = 1e-300;
    EXPECT_TRUE(hasErrorContaining(spec, "gpu.pcie_bandwidth"));
}

TEST(SpecValidation, RejectsMeasuredDemandWithoutMeasurement)
{
    // demand_source=measured promises the autoscaler live rates; with
    // measured_rate_alpha left at zero no MeasuredRate instances exist
    // and the capacity signals would silently stay nominal. The error
    // names the knob that unlocks it.
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.demandSource =
        routing::DemandSource::Measured;
    EXPECT_TRUE(hasErrorContaining(spec, "measured_rate_alpha"));
    spec.cluster.autoscaler.measuredRateAlpha = 0.3;
    EXPECT_TRUE(spec.validate().empty());
}

TEST(SpecValidation, CollectsEveryProblemAtOnce)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 0;
    spec.engine.tpDegree = 3;
    spec.adapters.prefetchTopK = 4;
    EXPECT_GE(spec.validate().size(), 3u);
}
