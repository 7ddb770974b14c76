/**
 * @file
 * Tests for SystemSpec <-> JSON serialisation (spec_json.h):
 *  - round-trip stability: print -> parse -> operator== for every
 *    registry name, composed grammar specs, and randomly generated
 *    valid specs (property test);
 *  - partial configs: missing keys keep defaults, `{}` is the paper
 *    testbed's full Chameleon;
 *  - strict rejection: unknown keys, type mismatches, bad enum values,
 *    and validate() contradictions all name the offending key;
 *  - SystemSpec::operator== distinguishes every axis;
 *  - pinned dumps: the exact bytes specToJson prints for every preset
 *    and for the fleet, fabric, closed-loop and tenancy specs;
 *  - every spec struct member is in its field list.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/fields.h"
#include "simkit/rng.h"
#include "sweep/sweep_spec.h"

using namespace chameleon;

namespace {

core::SystemSpec
roundTrip(const core::SystemSpec &spec)
{
    std::string error;
    const auto parsed = core::specFromJson(core::specToJson(spec), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return parsed.value_or(core::SystemSpec{});
}

/** A random *valid* spec: contradictory knob pairs are kept coherent. */
core::SystemSpec
randomSpec(sim::Rng &rng)
{
    core::SystemSpec spec;
    spec.name = "random-" + std::to_string(rng.nextBelow(1u << 20));

    switch (rng.nextBelow(4)) {
      case 0: spec.engine.model = model::llama7B(); break;
      case 1: spec.engine.model = model::llama13B(); break;
      case 2: spec.engine.model = model::llama30B(); break;
      default: spec.engine.model = model::llama70B(); break;
    }
    spec.engine.gpu = rng.nextBelow(2) ? model::a40()
                                       : model::a100(rng.nextBelow(2)
                                                         ? 48
                                                         : 80);
    const int tpDegrees[] = {1, 2, 4, 8};
    spec.engine.tpDegree = tpDegrees[rng.nextBelow(4)];
    spec.engine.workspacePerGpu =
        (1ll + static_cast<std::int64_t>(rng.nextBelow(8))) << 30;
    // Raise the drawn TP until the model fits the smallest GPU drawn
    // here or per replica (48 GiB) with room for the KV cache.
    const auto fits = [&spec](std::int64_t tp) {
        return tp * (48ll << 30) - spec.engine.model.weightsBytes() -
                   tp * spec.engine.workspacePerGpu >=
               spec.engine.model.kvBytesPerToken();
    };
    while (!fits(spec.engine.tpDegree))
        spec.engine.tpDegree *= 2;
    spec.engine.maxNewTokens = 128 + static_cast<std::int64_t>(
                                         rng.nextBelow(1024));
    spec.engine.cost.loraIneff = 10.0 + rng.nextDouble() * 50.0;
    spec.engine.cost.tpSyncMs = rng.nextDouble() * 20.0;

    const core::SchedulerPolicy schedulers[] = {
        core::SchedulerPolicy::Fifo, core::SchedulerPolicy::Sjf,
        core::SchedulerPolicy::Mlq};
    spec.scheduler.policy = schedulers[rng.nextBelow(3)];
    spec.scheduler.sjfAgingPerSecond = rng.nextDouble() * 100.0;
    spec.scheduler.sloSeconds = 1.0 + rng.nextDouble() * 9.0;
    spec.scheduler.refreshPeriod =
        static_cast<sim::SimTime>(60 + rng.nextBelow(600)) * sim::kSec;
    spec.scheduler.bypass = rng.nextBelow(2) != 0;
    spec.scheduler.dynamicQueues = rng.nextBelow(2) != 0;
    const core::WrsForm forms[] = {core::WrsForm::Degree2,
                                   core::WrsForm::Degree1,
                                   core::WrsForm::OutputOnly};
    spec.scheduler.wrsForm = forms[rng.nextBelow(3)];

    if (rng.nextBelow(2)) {
        spec.adapters.policy = core::AdapterPolicy::ChameleonCache;
        const auto &evictions = core::allEvictionPolicies();
        spec.adapters.eviction = evictions[rng.nextBelow(
            evictions.size())];
        if (rng.nextBelow(2)) {
            spec.adapters.predictivePrefetch = true;
            spec.adapters.prefetchTopK = 1 + rng.nextBelow(16);
        }
    } else {
        spec.adapters.policy = rng.nextBelow(2)
                                   ? core::AdapterPolicy::SLora
                                   : core::AdapterPolicy::OnDemand;
    }

    spec.predictor.kind = rng.nextBelow(2) ? core::PredictorKind::Bert
                                           : core::PredictorKind::History;
    spec.predictor.accuracy = rng.nextDouble();
    spec.predictor.seed = rng();

    spec.cluster.replicas = 1 + static_cast<int>(rng.nextBelow(6));
    // Heterogeneous dimension: a third of the specs deploy a mixed
    // fleet with per-replica engine overrides.
    if (rng.nextBelow(3) == 0) {
        for (int i = 0; i < spec.cluster.replicas; ++i) {
            serving::EngineConfig cfg = spec.engine;
            cfg.gpu = rng.nextBelow(2)
                          ? model::a40()
                          : model::a100(rng.nextBelow(2) ? 48 : 80);
            cfg.maxRunning = 64 + static_cast<int>(rng.nextBelow(256));
            cfg.cost.tpSyncMs = rng.nextDouble() * 20.0;
            spec.cluster.replicaEngines.push_back(std::move(cfg));
        }
    }
    const routing::RouterPolicy routers[] = {
        routing::RouterPolicy::RoundRobin,
        routing::RouterPolicy::JoinShortestQueue,
        routing::RouterPolicy::PowerOfTwoChoices,
        routing::RouterPolicy::AdapterAffinity,
        routing::RouterPolicy::AdapterAffinityCacheAware};
    spec.cluster.router = routers[rng.nextBelow(5)];
    spec.cluster.routerConfig.seed = rng();
    spec.cluster.routerConfig.virtualNodes =
        16 + static_cast<int>(rng.nextBelow(128));
    spec.cluster.routerConfig.spillLoadFactor =
        0.5 + rng.nextDouble() * 2.0;
    if (rng.nextBelow(2)) {
        spec.cluster.autoscale = true;
        spec.cluster.autoscaler.minReplicas = 1 + rng.nextBelow(3);
        spec.cluster.autoscaler.maxReplicas =
            spec.cluster.autoscaler.minReplicas + rng.nextBelow(6);
        spec.cluster.autoscaler.replicaServiceRps =
            rng.nextDouble() * 20.0;
        spec.cluster.autoscaler.bootMs = rng.nextDouble() * 30000.0;
        const routing::ScaleUpPolicy policies[] = {
            routing::ScaleUpPolicy::Default,
            routing::ScaleUpPolicy::Cheapest,
            routing::ScaleUpPolicy::Fastest};
        spec.cluster.autoscaler.scaleUpPolicy =
            policies[rng.nextBelow(3)];
        spec.cluster.autoscaler.measuredRateAlpha = rng.nextDouble();
    }

    const core::ReservationPolicy reservations[] = {
        core::ReservationPolicy::Auto, core::ReservationPolicy::MaxTokens,
        core::ReservationPolicy::Predicted};
    spec.reservation = reservations[rng.nextBelow(3)];
    if (rng.nextBelow(2)) {
        spec.chunkedPrefill = true;
        spec.chunkTokens = 16 + static_cast<std::int64_t>(
                                    rng.nextBelow(512));
    }
    return spec;
}

std::string
parseError(const std::string &text)
{
    std::string error;
    const auto parsed = core::specFromJson(text, &error);
    EXPECT_FALSE(parsed.has_value()) << text;
    return error;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip stability.
// ---------------------------------------------------------------------

TEST(SpecJson, RoundTripsEveryRegistryName)
{
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names()) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        EXPECT_EQ(roundTrip(spec), spec) << name;
    }
}

TEST(SpecJson, RoundTripsComposedGrammarSpecs)
{
    const auto &registry = core::SystemRegistry::global();
    for (const char *name :
         {"chameleon+gdsf+prefetch", "slora+sjf+cache",
          "chameleon+history+nobypass+static", "slora+chunked128"}) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        EXPECT_EQ(roundTrip(spec), spec) << name;
    }
}

TEST(SpecJson, RoundTripsRandomValidSpecs)
{
    sim::Rng rng(0xDECAF);
    for (int i = 0; i < 100; ++i) {
        const auto spec = randomSpec(rng);
        ASSERT_TRUE(spec.validate().empty())
            << "generator produced an invalid spec at iteration " << i;
        const auto back = roundTrip(spec);
        EXPECT_EQ(back, spec) << "iteration " << i << "\n"
                              << core::specToJson(spec);
    }
}

TEST(SpecJson, ClusterDeploymentSurvivesRoundTrip)
{
    auto spec = core::presets::chameleonGdsf();
    spec.engine.model = model::llama13B();
    spec.engine.gpu = model::a100(80);
    spec.cluster.replicas = 4;
    spec.cluster.router = routing::RouterPolicy::AdapterAffinity;
    spec.cluster.routerConfig.seed = 0xFEEDFACECAFEBEEFull;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.minReplicas = 2;
    spec.cluster.autoscaler.maxReplicas = 6;
    spec.cluster.autoscaler.replicaServiceRps = 8.5;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
}

TEST(SpecJson, AutoscalerRealismKnobsSurviveRoundTrip)
{
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.replicaServiceRps = 8.5;
    spec.cluster.autoscaler.bootMs = 12500.0;
    spec.cluster.autoscaler.scaleUpPolicy =
        routing::ScaleUpPolicy::Cheapest;
    spec.cluster.autoscaler.measuredRateAlpha = 0.25;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    // Textual stability (the --dump-config | --config - contract).
    const auto text = core::specToJson(spec);
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
    // The keys parse from hand-written JSON too, not only from dumps.
    const auto fromText = core::specFromJson(
        R"({"cluster": {"replicas": 2, "autoscale": true, "autoscaler":)"
        R"( {"boot_ms": 4000, "scale_up_policy": "fastest",)"
        R"(  "measured_rate_alpha": 0.5}}})");
    ASSERT_TRUE(fromText.has_value());
    EXPECT_EQ(fromText->cluster.autoscaler.bootMs, 4000.0);
    EXPECT_EQ(fromText->cluster.autoscaler.scaleUpPolicy,
              routing::ScaleUpPolicy::Fastest);
    EXPECT_EQ(fromText->cluster.autoscaler.measuredRateAlpha, 0.5);
}

TEST(SpecJson, RejectsMalformedAutoscalerRealismKnobs)
{
    // Unknown enum value: the error names the path and the options.
    const auto policy = parseError(
        R"({"cluster": {"autoscaler": {"scale_up_policy": "warp"}}})");
    EXPECT_NE(policy.find("cluster.autoscaler.scale_up_policy"),
              std::string::npos)
        << policy;
    EXPECT_NE(policy.find("cheapest"), std::string::npos) << policy;
    // Type mismatch on boot_ms.
    const auto boot = parseError(
        R"({"cluster": {"autoscaler": {"boot_ms": "soon"}}})");
    EXPECT_NE(boot.find("cluster.autoscaler.boot_ms"),
              std::string::npos)
        << boot;
    // Out-of-domain values parse but fail validation, naming the knob.
    const auto negativeBoot = parseError(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "autoscaler": {"boot_ms": -1}}})");
    EXPECT_NE(negativeBoot.find("cluster.autoscaler.boot_ms"),
              std::string::npos)
        << negativeBoot;
    const auto alpha = parseError(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "autoscaler": {"measured_rate_alpha": 1.5}}})");
    EXPECT_NE(alpha.find("cluster.autoscaler.measured_rate_alpha"),
              std::string::npos)
        << alpha;
}

TEST(SpecJson, ClosedLoopKnobsSurviveRoundTrip)
{
    // The PR-10 control-plane trio: demand_source, boot_aware_horizon
    // and slo_admission all round-trip with every knob switched on.
    auto spec = core::presets::chameleon();
    spec.cluster.replicas = 2;
    spec.cluster.autoscale = true;
    spec.cluster.autoscaler.measuredRateAlpha = 0.3;
    spec.cluster.autoscaler.demandSource =
        routing::DemandSource::Measured;
    spec.cluster.autoscaler.bootAwareHorizon = true;
    spec.cluster.routerConfig.sloAdmission = true;
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    const auto text = core::specToJson(spec);
    EXPECT_NE(text.find("\"demand_source\": \"measured\""),
              std::string::npos);
    EXPECT_NE(text.find("\"boot_aware_horizon\": true"),
              std::string::npos);
    EXPECT_NE(text.find("\"slo_admission\": true"), std::string::npos);
    // Textual stability (the --dump-config | --config - contract).
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
    // Hand-written JSON parses too, not only dumps.
    const auto fromText = core::specFromJson(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "router_config": {"slo_admission": true}, "autoscaler":)"
        R"( {"measured_rate_alpha": 0.2, "demand_source": "measured",)"
        R"(  "boot_aware_horizon": true}}})");
    ASSERT_TRUE(fromText.has_value());
    EXPECT_EQ(fromText->cluster.autoscaler.demandSource,
              routing::DemandSource::Measured);
    EXPECT_TRUE(fromText->cluster.autoscaler.bootAwareHorizon);
    EXPECT_TRUE(fromText->cluster.routerConfig.sloAdmission);
}

TEST(SpecJson, RejectsUnknownDemandSourceListingTheOptions)
{
    const auto error = parseError(
        R"({"cluster": {"autoscaler": {"demand_source": "psychic"}}})");
    EXPECT_NE(error.find("cluster.autoscaler.demand_source"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("nominal"), std::string::npos) << error;
    EXPECT_NE(error.find("measured"), std::string::npos) << error;
    // And measured-without-measurement fails spec validation with the
    // knob that unlocks it.
    const auto unmeasured = parseError(
        R"({"cluster": {"replicas": 2, "autoscale": true,)"
        R"( "autoscaler": {"demand_source": "measured"}}})");
    EXPECT_NE(unmeasured.find("measured_rate_alpha"), std::string::npos)
        << unmeasured;
}

TEST(SpecJson, HeteroFleetRoundTripsBitIdentically)
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = 3;
    spec.cluster.router = routing::RouterPolicy::PowerOfTwoChoices;
    serving::EngineConfig fast = spec.engine;
    fast.gpu = model::a100(48);
    serving::EngineConfig slow = spec.engine;
    slow.maxRunning = 128;
    spec.cluster.replicaEngines = {fast, fast, slow};
    ASSERT_TRUE(spec.validate().empty());
    EXPECT_EQ(roundTrip(spec), spec);
    // The textual form is stable too: print -> parse -> print is
    // byte-identical (the --dump-config | --config - contract).
    const auto text = core::specToJson(spec);
    const auto parsed = core::specFromJson(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(core::specToJson(*parsed), text);
}

// ---------------------------------------------------------------------
// Partial configs apply onto defaults.
// ---------------------------------------------------------------------

TEST(SpecJson, EmptyObjectIsTheDefaultTestbedSpec)
{
    std::string error;
    const auto parsed = core::specFromJson("{}", &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    core::SystemSpec expected;
    expected.engine.model = model::llama7B();
    expected.engine.gpu = model::a40();
    EXPECT_EQ(*parsed, expected);
}

TEST(SpecJson, PartialConfigKeepsUnmentionedDefaults)
{
    const auto parsed = core::specFromJson(
        R"({"name": "mine", "scheduler": {"policy": "fifo"},)"
        R"( "adapters": {"eviction": "gdsf"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name, "mine");
    EXPECT_EQ(parsed->scheduler.policy, core::SchedulerPolicy::Fifo);
    EXPECT_EQ(parsed->adapters.eviction, core::EvictionKind::Gdsf);
    // Untouched axes keep their defaults.
    EXPECT_EQ(parsed->adapters.policy,
              core::AdapterPolicy::ChameleonCache);
    EXPECT_EQ(parsed->cluster.replicas, 1);
    EXPECT_EQ(parsed->scheduler.sloSeconds, 5.0);
}

TEST(SpecJson, AcceptsModelAndGpuShorthands)
{
    const auto parsed = core::specFromJson(
        R"({"engine": {"model": "llama-13b", "gpu": "a100-48"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->engine.model, model::llama13B());
    EXPECT_EQ(parsed->engine.gpu, model::a100(48));
}

TEST(SpecJson, ClusterReplicaOverridesApplyOntoTheBaseEngine)
{
    // "cluster.replicas" as an array: each entry (engine-override
    // object or GPU-preset string) applies onto the parsed base
    // engine, wherever the keys appear in the document.
    const auto parsed = core::specFromJson(
        R"({"cluster": {"replicas":)"
        R"( ["a100-48", {"gpu": "a100", "max_running": 64}]},)"
        R"( "engine": {"model": "llama-13b"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 2);
    ASSERT_EQ(parsed->cluster.replicaEngines.size(), 2u);
    EXPECT_EQ(parsed->cluster.replicaEngines[0].gpu, model::a100(48));
    // Base-engine fields survive under the override...
    EXPECT_EQ(parsed->cluster.replicaEngines[0].model,
              model::llama13B());
    EXPECT_EQ(parsed->cluster.replicaEngines[1].model,
              model::llama13B());
    // ...and any EngineConfig knob can differ per replica.
    EXPECT_EQ(parsed->cluster.replicaEngines[1].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[1].maxRunning, 64);
}

TEST(SpecJson, FleetShorthandExpandsToPerReplicaEngines)
{
    const auto parsed = core::specFromJson(
        R"({"cluster": {"fleet": "a100x2+a40x1"}})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 3);
    ASSERT_EQ(parsed->cluster.replicaEngines.size(), 3u);
    EXPECT_EQ(parsed->cluster.replicaEngines[0].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[1].gpu, model::a100(80));
    EXPECT_EQ(parsed->cluster.replicaEngines[2].gpu, model::a40());
    // The fleet is parse-time sugar: it dumps as the resolved
    // per-replica array and round-trips from there.
    EXPECT_EQ(roundTrip(*parsed), *parsed);
}

TEST(SpecJson, AcceptsLineCommentsInConfigs)
{
    const auto parsed = core::specFromJson(
        "{\n"
        "  // the GPU mix, one term per replica kind\n"
        "  \"cluster\": {\"fleet\": \"a40x2\"} // two A40s\n"
        "}\n");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cluster.replicas, 2);
}

// ---------------------------------------------------------------------
// Strict rejection with offending-key messages.
// ---------------------------------------------------------------------

TEST(SpecJson, RejectsUnknownKeysNamingThePath)
{
    const auto error =
        parseError(R"({"scheduler": {"polcy": "mlq"}})");
    EXPECT_NE(error.find("scheduler.polcy"), std::string::npos) << error;
    EXPECT_NE(error.find("not a recognised key"), std::string::npos)
        << error;

    const auto top = parseError(R"({"schedulr": {}})");
    EXPECT_NE(top.find("schedulr"), std::string::npos) << top;
}

TEST(SpecJson, RejectsTypeMismatchesNamingThePath)
{
    const auto error =
        parseError(R"({"cluster": {"replicas": "four"}})");
    EXPECT_NE(error.find("cluster.replicas"), std::string::npos) << error;
    EXPECT_NE(error.find("integer"), std::string::npos) << error;

    const auto nested = parseError(
        R"({"cluster": {"autoscaler": {"min_replicas": -1}}})");
    EXPECT_NE(nested.find("cluster.autoscaler.min_replicas"),
              std::string::npos)
        << nested;
}

TEST(SpecJson, RejectsOutOfRangeIntegers)
{
    // A value that would wrap in a 32-bit field must not silently run
    // as a different configuration.
    const auto wide =
        parseError(R"({"engine": {"tp_degree": 4294967297}})");
    EXPECT_NE(wide.find("engine.tp_degree"), std::string::npos) << wide;
    EXPECT_NE(wide.find("out of range"), std::string::npos) << wide;

    const auto negative = parseError(R"({"predictor": {"seed": -1}})");
    EXPECT_NE(negative.find("predictor.seed"), std::string::npos)
        << negative;
    EXPECT_NE(negative.find("non-negative"), std::string::npos)
        << negative;

    // uint64 max is a valid seed and round-trips...
    const auto max = core::specFromJson(
        R"({"predictor": {"seed": 18446744073709551615}})");
    ASSERT_TRUE(max.has_value());
    EXPECT_EQ(max->predictor.seed, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(roundTrip(*max), *max);
    // ...but 2^64 is out of any 64-bit range.
    const auto huge = parseError(
        R"({"predictor": {"seed": 18446744073709551616}})");
    EXPECT_NE(huge.find("64-bit range"), std::string::npos) << huge;
    // And an unsigned-only value cannot feed a signed field.
    const auto signedField = parseError(
        R"({"chunk_tokens": 18446744073709551615})");
    EXPECT_NE(signedField.find("chunk_tokens"), std::string::npos)
        << signedField;
}

TEST(SpecJson, RejectsUnknownEnumValuesListingKnownOnes)
{
    const auto error =
        parseError(R"({"adapters": {"eviction": "mru"}})");
    EXPECT_NE(error.find("adapters.eviction"), std::string::npos) << error;
    EXPECT_NE(error.find("gdsf"), std::string::npos) << error;

    const auto model_error =
        parseError(R"({"engine": {"model": "gpt-5"}})");
    EXPECT_NE(model_error.find("engine.model"), std::string::npos)
        << model_error;
    EXPECT_NE(model_error.find("llama-7b"), std::string::npos)
        << model_error;
}

TEST(SpecJson, RejectsSyntaxErrorsWithLineInfo)
{
    const auto error = parseError("{\"name\": }");
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(SpecJson, RejectsBadFleetAndReplicaOverrides)
{
    // Unknown fleet presets name the key and teach the grammar.
    const auto fleet = parseError(R"({"cluster": {"fleet": "h100x8"}})");
    EXPECT_NE(fleet.find("cluster.fleet"), std::string::npos) << fleet;
    EXPECT_NE(fleet.find("<gpu>x<count>"), std::string::npos) << fleet;
    EXPECT_NE(fleet.find("a100"), std::string::npos) << fleet;

    // A fleet beside an explicit replicas key would define the count
    // twice; one of them would silently lose.
    const auto both = parseError(
        R"({"cluster": {"fleet": "a40x2", "replicas": 2}})");
    EXPECT_NE(both.find("conflicts"), std::string::npos) << both;

    // Array entries carry their index in the error path.
    const auto gpu = parseError(
        R"({"cluster": {"replicas": ["a40", "b200"]}})");
    EXPECT_NE(gpu.find("cluster.replicas[1]"), std::string::npos) << gpu;
    EXPECT_NE(gpu.find("a100"), std::string::npos) << gpu;
    const auto key = parseError(
        R"({"cluster": {"replicas": [{"gpuz": "a40"}]}})");
    EXPECT_NE(key.find("cluster.replicas[0].gpuz"), std::string::npos)
        << key;

    // An empty list is neither a count nor a fleet.
    const auto empty = parseError(R"({"cluster": {"replicas": []}})");
    EXPECT_NE(empty.find("empty array"), std::string::npos) << empty;

    // And the count form still rejects non-integers.
    const auto type = parseError(R"({"cluster": {"replicas": 1.5}})");
    EXPECT_NE(type.find("integer count or an array"), std::string::npos)
        << type;
}

TEST(SpecValidate, ReplicaOverridesMustMatchTheReplicaCount)
{
    auto spec = core::presets::chameleon();
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();
    spec.cluster.replicas = 3;
    spec.cluster.replicaEngines = {spec.engine, spec.engine};
    const auto errors = spec.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("cluster.replicas lists"), std::string::npos)
        << errors[0];
    EXPECT_NE(errors[0].find("one override per replica"),
              std::string::npos)
        << errors[0];

    // Per-replica contradictions are named with their index.
    spec.cluster.replicaEngines.push_back(spec.engine);
    spec.cluster.replicaEngines[1].tpDegree = 0;
    const auto tpErrors = spec.validate();
    ASSERT_EQ(tpErrors.size(), 1u);
    EXPECT_NE(tpErrors[0].find("cluster.replicas[1].tp_degree"),
              std::string::npos)
        << tpErrors[0];
}

TEST(SpecJson, RejectsValidationContradictions)
{
    // Parses fine, but GDSF eviction without the cache is contradictory;
    // the validate() message comes through the JSON error channel.
    const auto error = parseError(
        R"({"adapters": {"policy": "slora", "eviction": "gdsf"}})");
    EXPECT_NE(error.find("requires the chameleon cache"),
              std::string::npos)
        << error;
}

// ---------------------------------------------------------------------
// operator== (the round-trip assertions depend on it being exact).
// ---------------------------------------------------------------------

TEST(SpecEquality, DistinguishesEveryAxis)
{
    const auto base = [] {
        auto spec = core::presets::chameleon();
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        return spec;
    };

    EXPECT_EQ(base(), base());

    auto named = base();
    named.name = "other";
    EXPECT_NE(named, base());

    auto scheduler = base();
    scheduler.scheduler.policy = core::SchedulerPolicy::Fifo;
    EXPECT_NE(scheduler, base());

    auto eviction = base();
    eviction.adapters.eviction = core::EvictionKind::Lru;
    EXPECT_NE(eviction, base());

    auto predictor = base();
    predictor.predictor.accuracy = 0.6;
    EXPECT_NE(predictor, base());

    auto engine = base();
    engine.engine.workspacePerGpu += 1;
    EXPECT_NE(engine, base());

    auto cluster = base();
    cluster.cluster.replicas = 2;
    EXPECT_NE(cluster, base());

    auto hetero = base();
    hetero.cluster.replicaEngines = {hetero.engine};
    EXPECT_NE(hetero, base());

    auto router = base();
    router.cluster.routerConfig.seed += 1;
    EXPECT_NE(router, base());

    auto autoscaler = base();
    autoscaler.cluster.autoscaler.highWatermark += 1.0;
    EXPECT_NE(autoscaler, base());

    auto reservation = base();
    reservation.reservation = core::ReservationPolicy::Predicted;
    EXPECT_NE(reservation, base());

    auto chunked = base();
    chunked.chunkTokens += 1;
    EXPECT_NE(chunked, base());
}

// ---------------------------------------------------------------------
// Pinned dumps: the printed bytes, not just the round trip, must stay.
// ---------------------------------------------------------------------

namespace {

/** Every registry preset on the paper testbed, plus the hetero-fleet,
 * fabric, closed-loop and tenancy specs the other suites build. */
std::vector<std::pair<std::string, core::SystemSpec>>
pinnedSpecs()
{
    std::vector<std::pair<std::string, core::SystemSpec>> specs;
    const auto &registry = core::SystemRegistry::global();
    for (const auto &name : registry.names()) {
        auto spec = registry.lookup(name);
        spec.engine.model = model::llama7B();
        spec.engine.gpu = model::a40();
        specs.emplace_back(name, spec);
    }

    auto fleet = core::presets::chameleon();
    fleet.engine.model = model::llama7B();
    fleet.engine.gpu = model::a40();
    fleet.cluster.replicas = 3;
    fleet.cluster.router = routing::RouterPolicy::PowerOfTwoChoices;
    serving::EngineConfig fast = fleet.engine;
    fast.gpu = model::a100(48);
    serving::EngineConfig slow = fleet.engine;
    slow.maxRunning = 128;
    fleet.cluster.replicaEngines = {fast, fast, slow};
    specs.emplace_back("hetero-fleet", fleet);

    auto fab = registry.lookup("chameleon");
    fab.engine.model = model::llama7B();
    fab.engine.gpu = model::a40();
    fab.cluster.router = routing::RouterPolicy::AdapterAffinityDirectory;
    fab.cluster.routerConfig.seed = 1234;
    fab.predictor.seed = 1234;
    fab.fabric.migration = fabric::MigrationPolicy::All;
    fab.fabric.topology = fabric::TopologyKind::NvLink;
    fab.fabric.topK = 9;
    fab.cluster.replicas = 2;
    serving::EngineConfig a100 = fab.engine;
    a100.gpu = model::a100(48);
    fab.cluster.replicaEngines = {a100, fab.engine};
    fab.cluster.autoscale = true;
    fab.cluster.autoscaler.minReplicas = 1;
    fab.cluster.autoscaler.maxReplicas = 4;
    fab.cluster.autoscaler.evalPeriodSeconds = 5.0;
    fab.cluster.autoscaler.replicaServiceRps = 6.0;
    fab.cluster.autoscaler.downCooldownPeriods = 2;
    specs.emplace_back("fabric", fab);

    auto loop = core::presets::chameleon();
    loop.cluster.replicas = 2;
    loop.cluster.autoscale = true;
    loop.cluster.autoscaler.measuredRateAlpha = 0.3;
    loop.cluster.autoscaler.demandSource = routing::DemandSource::Measured;
    loop.cluster.autoscaler.bootAwareHorizon = true;
    loop.cluster.autoscaler.bootMs = 12500.0;
    loop.cluster.autoscaler.scaleUpPolicy = routing::ScaleUpPolicy::Cheapest;
    loop.cluster.routerConfig.sloAdmission = true;
    specs.emplace_back("closed-loop", loop);

    auto tenants = registry.lookup("chameleon+wfq");
    tenants.engine.model = model::llama7B();
    tenants.engine.gpu = model::a40();
    tenants.tenancy.tenants = 4;
    tenants.tenancy.weights = {2.0, 1.0, 1.0, 0.5};
    tenants.tenancy.sloMultipliers = {1.0, 1.0, 2.0, 2.0};
    tenants.tenancy.drrQuantumTokens = 256;
    specs.emplace_back("tenancy", tenants);
    return specs;
}

} // namespace

TEST(SpecJson, DumpBytesArePinned)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"chameleon", 0x30985d0aad29a9f8ull},
        {"chameleon-degree1", 0x348b3b210fecab1full},
        {"chameleon-fairshare", 0x90c47667177cb767ull},
        {"chameleon-gdsf", 0xbb243d7e9e4ff3a1ull},
        {"chameleon-lru", 0xeedc496706f9158full},
        {"chameleon-nocache", 0xc2879d1c7e1d4692ull},
        {"chameleon-nosched", 0xb766790a88a3d5d1ull},
        {"chameleon-output-only", 0x32caf9af7484c99full},
        {"chameleon-prefetch", 0xe6deda9ce4debd5dull},
        {"chameleon-static", 0x2f60d6c2072a6388ull},
        {"slora", 0xe5f44a61b8c5aa25ull},
        {"slora-chunked", 0x7bd822b1bc6e806bull},
        {"slora-sjf", 0xf50d09a77f32d0e8ull},
        {"hetero-fleet", 0xba9f4d150d092842ull},
        {"fabric", 0x3bbe5cb57779f33full},
        {"closed-loop", 0xc10ad5061394f56dull},
        {"tenancy", 0x77efc0415514bb5eull},
    };
    for (const auto &[label, spec] : pinnedSpecs()) {
        ASSERT_TRUE(spec.validate().empty()) << label;
        const std::uint64_t hash = core::fnv1a64(core::specToJson(spec));
        const auto it = pinned.find(label);
        EXPECT_TRUE(it != pinned.end() && it->second == hash)
            << "dump of \"" << label << "\" changed or is not pinned: "
            << "{\"" << label << "\", 0x" << std::hex << hash << "ull},";
    }
}

// ---------------------------------------------------------------------
// Field lists: print, parse, operator== and the domain checks all walk
// them, so a member missing from its list would be skipped by all four
// at once and no round trip could notice.
// ---------------------------------------------------------------------

TEST(SpecFields, EveryMemberIsInItsFieldList)
{
    // A structured binding compiles only with one name per member, so a
    // member added to a spec struct breaks this build until its count
    // here is raised; the count then fails until the member joins the
    // struct's fields() list too. A numeric member listed without a
    // domain does not compile (sim::DomainWalk static_asserts on it).
    {
        [[maybe_unused]] const auto &[a, b, c, d, e] = model::ModelSpec{};
        EXPECT_EQ(sim::fieldCount<model::ModelSpec>(), 5u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f] = model::GpuSpec{};
        EXPECT_EQ(sim::fieldCount<model::GpuSpec>(), 6u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h, i, j, k] =
            model::CostParams{};
        EXPECT_EQ(sim::fieldCount<model::CostParams>(), 11u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h, i, j, k, l, m] =
            serving::EngineConfig{};
        EXPECT_EQ(sim::fieldCount<serving::EngineConfig>(), 13u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g] =
            core::SchedulerSpec{};
        EXPECT_EQ(sim::fieldCount<core::SchedulerSpec>(), 7u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d] = core::AdapterSpec{};
        EXPECT_EQ(sim::fieldCount<core::AdapterSpec>(), 4u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c] = core::PredictorSpec{};
        EXPECT_EQ(sim::fieldCount<core::PredictorSpec>(), 3u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e] = routing::RouterConfig{};
        EXPECT_EQ(sim::fieldCount<routing::RouterConfig>(), 5u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h,
                                      i, j, k, l, m, n, o] =
            routing::AutoscalerConfig{};
        EXPECT_EQ(sim::fieldCount<routing::AutoscalerConfig>(), 15u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f] = core::ClusterSpec{};
        EXPECT_EQ(sim::fieldCount<core::ClusterSpec>(), 6u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d] = core::TenancySpec{};
        EXPECT_EQ(sim::fieldCount<core::TenancySpec>(), 4u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c] = core::FabricSpec{};
        EXPECT_EQ(sim::fieldCount<core::FabricSpec>(), 3u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h, i, j, k] =
            core::SystemSpec{};
        EXPECT_EQ(sim::fieldCount<core::SystemSpec>(), 11u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h, i] =
            sweep::SweepWorkload{};
        EXPECT_EQ(sim::fieldCount<sweep::SweepWorkload>(), 9u);
    }
    {
        [[maybe_unused]] const auto &[a, b] = sweep::SweepGrid{};
        EXPECT_EQ(sim::fieldCount<sweep::SweepGrid>(), 2u);
    }
    {
        [[maybe_unused]] const auto &[a, b, c, d, e, f, g, h, i, j,
                                      k, l, m, n, o, p, q, r, s, t] =
            sweep::SweepSpec{};
        EXPECT_EQ(sim::fieldCount<sweep::SweepSpec>(), 20u);
    }
}
