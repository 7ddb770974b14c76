/**
 * @file
 * Tests for the sweep subsystem (sweep_spec.h / sweep_runner.h):
 *  - JSON loading: defaults, strict unknown-key rejection, grid
 *    grammar errors naming the offending token;
 *  - expansion: cross-product order and size, trace sharing across
 *    systems at a load, per-load seed derivation, rps_per_replica,
 *    and hash pins over every cell and every trace configuration of
 *    the committed example sweeps;
 *  - determinism: the same sweep JSON + seed produces a byte-identical
 *    BenchJson document on repeated runs and at any thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chameleon/spec_json.h"
#include "chameleon/system.h"
#include "simkit/json.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

using namespace chameleon;

namespace {

const char *kSmallSweep = R"({
  "name": "small",
  "systems": ["slora", "chameleon"],
  "loads": [4.0, 5.0],
  "workload": {"preset": "splitwise", "duration_s": 20, "adapters": 16},
  "seed": 7
})";

sweep::SweepSpec
parseSweep(const std::string &text)
{
    std::string error;
    const auto spec = sweep::sweepFromJson(text, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return spec.value_or(sweep::SweepSpec{});
}

std::string
sweepError(const std::string &text)
{
    std::string error;
    const auto spec = sweep::sweepFromJson(text, &error);
    EXPECT_FALSE(spec.has_value());
    return error;
}

} // namespace

// ---------------------------------------------------------------------
// JSON loading.
// ---------------------------------------------------------------------

TEST(SweepJson, LoadsWithDefaults)
{
    const auto spec = parseSweep(kSmallSweep);
    EXPECT_EQ(spec.name, "small");
    EXPECT_EQ(spec.systems.size(), 2u);
    EXPECT_EQ(spec.loads.size(), 2u);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.threads, 1);
    EXPECT_EQ(spec.workload.adapters, 16);
    EXPECT_EQ(spec.outputPath(), "BENCH_small.json");
    // The hardware template defaults to the paper testbed.
    EXPECT_EQ(spec.engine.model.name, "llama-7b");
}

TEST(SweepJson, RejectsUnknownKeysNamingThem)
{
    const auto error =
        sweepError(R"({"systems": ["slora"], "workloadz": {}})");
    EXPECT_NE(error.find("workloadz"), std::string::npos) << error;

    const auto nested = sweepError(
        R"({"systems": ["slora"], "workload": {"durations": 5}})");
    EXPECT_NE(nested.find("workload.durations"), std::string::npos)
        << nested;
}

TEST(SweepJson, RejectsEmptySweeps)
{
    const auto error = sweepError(R"({"name": "empty"})");
    EXPECT_NE(error.find("nothing to run"), std::string::npos) << error;
}

TEST(SweepJson, RejectsExplicitlyEmptyAxisArrays)
{
    // An empty axis silently replaced by a default would run a grid
    // the author never wrote; "systems": [] stays legal (grid-only).
    for (const char *axis : {"loads", "replicas", "routers", "autoscale"}) {
        const auto error = sweepError(
            std::string(R"({"systems": ["slora"], ")") + axis +
            R"(": []})");
        EXPECT_NE(error.find(axis), std::string::npos) << error;
        EXPECT_NE(error.find("empty array"), std::string::npos) << error;
    }
    EXPECT_EQ(parseSweep(R"({"systems": [],
                             "grid": {"base": "chameleon"}})")
                  .grid.base.value_or(""),
              "chameleon");
}

TEST(SweepJson, RejectsBadWorkloadPreset)
{
    const auto error = sweepError(
        R"({"systems": ["slora"], "workload": {"preset": "azure"}})");
    EXPECT_NE(error.find("workload.preset"), std::string::npos) << error;
    EXPECT_NE(error.find("splitwise"), std::string::npos) << error;
}

TEST(SweepJson, AutoscaleAxisAndTemplateLoadAndExpand)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "loads": [6.0],
      "replicas": [2],
      "autoscale": [false, true],
      "autoscaler": {"min_replicas": 2, "max_replicas": 6,
                     "replica_service_rps": 8.5, "boot_ms": 4000,
                     "scale_up_policy": "fastest",
                     "measured_rate_alpha": 0.3}
    })");
    ASSERT_EQ(spec.autoscale.size(), 2u);
    EXPECT_EQ(spec.autoscaler.maxReplicas, 6u);
    EXPECT_EQ(spec.autoscaler.bootMs, 4000.0);
    EXPECT_EQ(spec.autoscaler.scaleUpPolicy,
              routing::ScaleUpPolicy::Fastest);

    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 2u);
    // Off-cell: a fixed cluster untouched by the autoscaler template.
    EXPECT_FALSE((*cells)[0].spec.cluster.autoscale);
    EXPECT_EQ((*cells)[0].spec.cluster.autoscaler,
              routing::AutoscalerConfig{});
    // On-cell: autoscaling with the template stamped in.
    EXPECT_TRUE((*cells)[1].spec.cluster.autoscale);
    EXPECT_EQ((*cells)[1].spec.cluster.autoscaler, spec.autoscaler);
    // Both cells share the trace: identical arrivals, on/off compared.
    EXPECT_EQ((*cells)[0].traceIndex, (*cells)[1].traceIndex);
}

TEST(SweepJson, AutoscaleAxisRejectsNonBooleans)
{
    const auto error = sweepError(
        R"({"systems": ["slora"], "autoscale": [1, 0]})");
    EXPECT_NE(error.find("autoscale"), std::string::npos) << error;
    EXPECT_NE(error.find("boolean"), std::string::npos) << error;
}

TEST(SweepExpand, InvalidAutoscalerTemplateNamesTheCell)
{
    auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "autoscale": [true],
      "autoscaler": {"min_replicas": 4, "max_replicas": 2}
    })");
    std::string error;
    EXPECT_FALSE(sweep::expandSweep(spec, &error).has_value());
    EXPECT_NE(error.find("autoscale"), std::string::npos) << error;
    EXPECT_NE(error.find("max_replicas"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Expansion.
// ---------------------------------------------------------------------

TEST(SweepExpand, GridCrossProductOrderAndSize)
{
    const auto spec = parseSweep(R"({
      "systems": ["slora"],
      "grid": {"base": "chameleon",
               "axes": [["paper", "lru"], ["bypass", "nobypass"]]},
      "loads": [4.0, 6.0]
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    // (1 explicit + 2x2 grid) systems x 2 loads.
    ASSERT_EQ(cells->size(), 10u);
    EXPECT_EQ((*cells)[0].system, "slora");
    EXPECT_EQ((*cells)[0].rps, 4.0);
    EXPECT_EQ((*cells)[1].rps, 6.0);
    EXPECT_EQ((*cells)[2].system, "chameleon+paper+bypass");
    EXPECT_EQ((*cells)[4].system, "chameleon+paper+nobypass");
    EXPECT_EQ((*cells)[8].system, "chameleon+lru+nobypass");
    // The composed spec really carries the modifier.
    EXPECT_FALSE((*cells)[8].spec.scheduler.bypass);
    EXPECT_EQ((*cells)[8].spec.adapters.eviction,
              core::EvictionKind::Lru);
}

TEST(SweepExpand, SharesTracesAcrossSystemsAtALoad)
{
    const auto spec = parseSweep(kSmallSweep);
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    ASSERT_EQ(cells->size(), 4u);
    // slora@4 and chameleon@4 share trace 0; @5 share trace 1.
    EXPECT_EQ((*cells)[0].traceIndex, (*cells)[2].traceIndex);
    EXPECT_EQ((*cells)[1].traceIndex, (*cells)[3].traceIndex);
    EXPECT_NE((*cells)[0].traceIndex, (*cells)[1].traceIndex);
    // Per-load seed derivation: seed + load index.
    EXPECT_EQ((*cells)[0].traceSeed, 7u);
    EXPECT_EQ((*cells)[1].traceSeed, 8u);
}

TEST(SweepExpand, RpsPerReplicaScalesTheLoadAxis)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "loads": [4.0],
      "rps_per_replica": true,
      "replicas": [1, 2],
      "routers": ["affinity"]
    })");
    const auto cells = sweep::expandSweep(spec);
    ASSERT_TRUE(cells.has_value());
    ASSERT_EQ(cells->size(), 2u);
    EXPECT_EQ((*cells)[0].rps, 4.0);
    EXPECT_EQ((*cells)[1].rps, 8.0);
    EXPECT_NE((*cells)[0].traceIndex, (*cells)[1].traceIndex);
    EXPECT_EQ((*cells)[1].spec.cluster.replicas, 2);
    EXPECT_EQ((*cells)[1].spec.cluster.router,
              routing::RouterPolicy::AdapterAffinity);
}

TEST(SweepExpand, FleetAxisDeploysHeterogeneousCells)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "fleets": ["a40x2", "a100x1+a40x1"],
      "routers": ["jsq", "p2c"]
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    ASSERT_TRUE(cells.has_value()) << error;
    ASSERT_EQ(cells->size(), 4u);
    // The fleet axis sits where replicas would (routers innermost).
    EXPECT_EQ((*cells)[0].fleet, "a40x2");
    EXPECT_EQ((*cells)[0].spec.cluster.router,
              routing::RouterPolicy::JoinShortestQueue);
    EXPECT_EQ((*cells)[1].spec.cluster.router,
              routing::RouterPolicy::PowerOfTwoChoices);
    EXPECT_EQ((*cells)[2].fleet, "a100x1+a40x1");
    // Each cell's replica count and per-replica engines come from its
    // fleet preset, applied onto the sweep's engine template.
    EXPECT_EQ((*cells)[0].spec.cluster.replicas, 2);
    ASSERT_EQ((*cells)[0].spec.cluster.replicaEngines.size(), 2u);
    EXPECT_EQ((*cells)[0].spec.cluster.replicaEngines[0].gpu.name,
              "a40-48g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicas, 2);
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[0].gpu.name,
              "a100-80g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[1].gpu.name,
              "a40-48g");
    EXPECT_EQ((*cells)[2].spec.cluster.replicaEngines[0].model.name,
              spec.engine.model.name);
    ASSERT_TRUE((*cells)[2].spec.validate().empty());
}

TEST(SweepJson, RejectsFleetsBesideReplicas)
{
    const auto error = sweepError(R"({
      "systems": ["chameleon"],
      "fleets": ["a40x2"], "replicas": [2]
    })");
    EXPECT_NE(error.find("fleets"), std::string::npos) << error;
    EXPECT_NE(error.find("conflicts"), std::string::npos) << error;
}

TEST(SweepExpand, ChecksASweepBuiltInCxxLikeAParsedOne)
{
    // expandSweep runs sweepFromJson's checks too, so none of these
    // silently runs or drops an axis.
    sweep::SweepSpec base;
    base.systems = {"chameleon"};
    base.workload.durationSeconds = 10.0;
    std::string error;
    ASSERT_TRUE(sweep::expandSweep(base, &error).has_value()) << error;

    auto storm = base;
    storm.workload.tenantStorm = 8.0;
    EXPECT_FALSE(sweep::expandSweep(storm, &error).has_value());
    EXPECT_NE(error.find("workload.tenant_storm"), std::string::npos)
        << error;

    auto both = base;
    both.fleets = {"a40x2"};
    both.replicas = {2};
    EXPECT_FALSE(sweep::expandSweep(both, &error).has_value());
    EXPECT_NE(error.find("conflicts"), std::string::npos) << error;

    // JSON cannot spell these; C++ can.
    auto nanLoad = base;
    nanLoad.loads = {std::nan("")};
    EXPECT_FALSE(sweep::expandSweep(nanLoad, &error).has_value());
    EXPECT_NE(error.find("loads"), std::string::npos) << error;
    auto endless = base;
    endless.workload.durationSeconds = HUGE_VAL;
    EXPECT_FALSE(sweep::expandSweep(endless, &error).has_value());
    EXPECT_NE(error.find("workload.duration_s"), std::string::npos) << error;
}

TEST(SweepJson, RejectsTraceLoadsBeyondTheRequestCap)
{
    const auto longer = sweepError(
        R"({"systems": ["slora"], "workload": {"duration_s": 2e9}})");
    EXPECT_NE(longer.find("workload.duration_s"), std::string::npos)
        << longer;
    const auto big = sweepError(
        R"({"systems": ["slora"], "loads": [1e6],)"
        R"( "workload": {"duration_s": 1e6}})");
    EXPECT_NE(big.find("loads"), std::string::npos) << big;
    EXPECT_NE(big.find("workload.duration_s"), std::string::npos) << big;

    // Per replica, the cell's load is what the cap bounds.
    auto spec = parseSweep(R"({"systems": ["chameleon"], "loads": [3000],)"
                           R"( "rps_per_replica": true, "replicas": [1, 2],)"
                           R"( "workload": {"duration_s": 1000}})");
    std::string error;
    EXPECT_FALSE(sweep::expandSweep(spec, &error).has_value());
    EXPECT_NE(error.find("workload.duration_s"), std::string::npos)
        << error;
}

TEST(SweepExpand, UnknownFleetFailsTeachingTheGrammar)
{
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"], "fleets": ["h100x8"]
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    EXPECT_FALSE(cells.has_value());
    EXPECT_NE(error.find("h100x8"), std::string::npos) << error;
    EXPECT_NE(error.find("<gpu>x<count>"), std::string::npos) << error;
    EXPECT_NE(error.find("a100"), std::string::npos) << error;
}

TEST(SweepExpand, UnknownModifierTokenFailsWithGrammarMessage)
{
    const auto spec = parseSweep(R"({
      "grid": {"base": "chameleon", "axes": [["frobnicate"]]}
    })");
    std::string error;
    const auto cells = sweep::expandSweep(spec, &error);
    EXPECT_FALSE(cells.has_value());
    EXPECT_NE(error.find("chameleon+frobnicate"), std::string::npos)
        << error;
    EXPECT_NE(error.find("unknown system modifier"), std::string::npos)
        << error;
}

TEST(SweepExpand, UnknownRouterFailsWithKnownList)
{
    // An axis holds enum values, so the name fails at the parse.
    const auto error = sweepError(R"({
      "systems": ["chameleon"], "routers": ["hash-ring"]
    })");
    EXPECT_NE(error.find("routers[0]"), std::string::npos) << error;
    EXPECT_NE(error.find("hash-ring"), std::string::npos) << error;
    EXPECT_NE(error.find("affinity"), std::string::npos) << error;
}

TEST(SweepExpansion, CellsArePinned)
{
    // Every cell of every committed example sweep, as (system, rps,
    // trace index, trace seed, fleet, spec dump): a refactor of the
    // expansion must reproduce each grid cell for cell.
    const std::map<std::string, std::uint64_t> pinned = {
        {"autoscale_step.json", 0xe05e01da1b734fe4ull},
        {"ci_smoke.json", 0x99f997630a57c269ull},
        {"fabric_smoke.json", 0x38c3ada351653d15ull},
        {"fig17_policy_grid.json", 0x1826949c16563c43ull},
        {"hetero_fleet.json", 0x0da467e9b7d9a257ull},
        {"minimal.json", 0x1f29eb048e2938a5ull},
        {"noisy_neighbour.json", 0xee9414d44c3dfd03ull},
    };
    std::set<std::string> seen;
    for (const auto &entry :
         std::filesystem::directory_iterator(CHAMELEON_SWEEPS_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string file = entry.path().filename().string();
        seen.insert(file);
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        const auto spec = sweep::sweepFromJson(text.str(), &error);
        ASSERT_TRUE(spec.has_value()) << file << ": " << error;
        const auto cells = sweep::expandSweep(*spec, &error);
        ASSERT_TRUE(cells.has_value()) << file << ": " << error;
        std::string flat;
        for (const auto &cell : *cells) {
            char rps[32];
            std::snprintf(rps, sizeof(rps), "%.17g", cell.rps);
            flat += cell.system + '\n' + rps + '\n' +
                    std::to_string(cell.traceIndex) + '\n' +
                    std::to_string(cell.traceSeed) + '\n' + cell.fleet +
                    '\n' + core::specToJson(cell.spec) + '\n';
        }
        const std::uint64_t hash = core::fnv1a64(flat);
        const auto it = pinned.find(file);
        EXPECT_TRUE(it != pinned.end() && it->second == hash)
            << "cells of " << file << " changed or are not pinned: {\""
            << file << "\", 0x" << std::hex << hash << "ull},";
    }
    EXPECT_EQ(seen.size(), pinned.size())
        << "a pinned example sweep is missing";
}

TEST(SweepExpansion, TraceConfigsArePinned)
{
    // Every distinct trace-generator configuration of every committed
    // example sweep: the workload keys reach the traces only through
    // cellTraceConfig, which CellsArePinned does not see.
    const std::map<std::string, std::uint64_t> pinned = {
        {"autoscale_step.json", 0xa647d589f1d6747bull},
        {"ci_smoke.json", 0x7e378a6a55556cf5ull},
        {"fabric_smoke.json", 0xed50ae13c69548ffull},
        {"fig17_policy_grid.json", 0x06ca16764db1a81aull},
        {"hetero_fleet.json", 0x3f3880a599246664ull},
        {"minimal.json", 0xa658268048c846e9ull},
        {"noisy_neighbour.json", 0x89fca754c6c5054dull},
    };
    std::set<std::string> seen;
    for (const auto &entry :
         std::filesystem::directory_iterator(CHAMELEON_SWEEPS_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string file = entry.path().filename().string();
        seen.insert(file);
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        const auto spec = sweep::sweepFromJson(text.str(), &error);
        ASSERT_TRUE(spec.has_value()) << file << ": " << error;
        const auto cells = sweep::expandSweep(*spec, &error);
        ASSERT_TRUE(cells.has_value()) << file << ": " << error;
        std::set<std::size_t> traces;
        std::ostringstream flat;
        flat.precision(17);
        for (const auto &cell : *cells) {
            if (!traces.insert(cell.traceIndex).second)
                continue;
            const auto wl =
                sweep::cellTraceConfig(*spec, cell.rps, cell.traceSeed);
            flat << wl.rps << ' ' << wl.durationSeconds << ' '
                 << wl.numAdapters << ' '
                 << static_cast<int>(wl.rankPopularity) << ' '
                 << static_cast<int>(wl.adapterPopularity) << ' '
                 << wl.burstMultiplier << ' ' << wl.burstPeriodSeconds
                 << ' ' << wl.burstDurationSeconds << ' ' << wl.numTenants
                 << ' ' << wl.stormTenant << ' ' << wl.stormMultiplier
                 << ' ' << wl.stormStartSeconds << ' '
                 << wl.stormEndSeconds << ' ' << wl.seed << '\n';
        }
        const std::uint64_t hash = core::fnv1a64(flat.str());
        const auto it = pinned.find(file);
        EXPECT_TRUE(it != pinned.end() && it->second == hash)
            << "trace configs of " << file
            << " changed or are not pinned: {\"" << file << "\", 0x"
            << std::hex << hash << "ull},";
    }
    EXPECT_EQ(seen.size(), pinned.size())
        << "a pinned example sweep is missing";
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(SweepRunner, SameJsonAndSeedProducesIdenticalBenchJson)
{
    const auto spec = parseSweep(kSmallSweep);
    sweep::SweepRunner first(spec);
    sweep::SweepRunner second(spec);
    const auto a = first.runToBenchJson().toString();
    const auto b = second.runToBenchJson().toString();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(SweepRunner, ThreadCountDoesNotChangeTheDocument)
{
    auto spec = parseSweep(kSmallSweep);
    spec.threads = 1;
    sweep::SweepRunner serial(spec);
    spec.threads = 4;
    sweep::SweepRunner threaded(spec);
    EXPECT_EQ(serial.runToBenchJson().toString(),
              threaded.runToBenchJson().toString());
}

TEST(SweepRunner, ThreadStressAt100kRequestsKeepsHashesAndBytes)
{
    // Determinism at scale: ~113k simulated requests across 8 cells,
    // run with 1, 2, and 8 worker threads. The consolidated BenchJson
    // must be byte-identical and every cell's event_hash — the FNV
    // fingerprint of its full canonical event stream — must match,
    // i.e. thread scheduling cannot leak into any simulation.
    auto spec = parseSweep(R"({
      "name": "stress",
      "systems": ["slora", "chameleon"],
      "loads": [30.0, 40.0],
      "replicas": [2, 4],
      "workload": {"preset": "splitwise", "duration_s": 400,
                   "adapters": 32},
      "seed": 21
    })");

    std::vector<std::string> documents;
    for (const int threads : {1, 2, 8}) {
        spec.threads = threads;
        documents.push_back(
            sweep::SweepRunner(spec).runToBenchJson().toString());
    }
    EXPECT_EQ(documents[0], documents[1]);
    EXPECT_EQ(documents[0], documents[2]);

    // Byte equality already implies hash equality; now check the
    // hashes themselves are present, well-formed, and that the grid
    // really ran at the promised scale.
    const auto doc = sim::parseJson(documents[0]);
    ASSERT_TRUE(doc.has_value());
    const sim::JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items().size(), 8u);
    std::int64_t submitted = 0;
    for (const auto &row : rows->items()) {
        const sim::JsonValue *hash = row.find("event_hash");
        ASSERT_NE(hash, nullptr);
        const std::string &text = hash->asString();
        ASSERT_EQ(text.size(), 18u) << text;
        EXPECT_EQ(text.substr(0, 2), "0x") << text;
        EXPECT_NE(text, "0x0000000000000000")
            << "a zero hash means the stream was never hashed";
        submitted += static_cast<std::int64_t>(
            row.find("submitted")->asNumber());
    }
    EXPECT_GE(submitted, 100000) << "grid shrank below 100k-request "
                                    "scale; enlarge the stress sweep";
}

TEST(SweepRunner, RowsPrintCanonicalAxisNames)
{
    // The columns read the cell spec, so an alias in the sweep prints
    // as the name table's canonical spelling.
    const auto spec = parseSweep(R"({
      "systems": ["chameleon"],
      "replicas": [2],
      "routers": ["round-robin"],
      "migrations": ["all"],
      "topologies": ["pcie-peer"],
      "workload": {"duration_s": 10, "adapters": 8}
    })");
    sweep::SweepRunner runner(spec);
    const auto doc = sim::parseJson(runner.runToBenchJson().toString());
    ASSERT_TRUE(doc.has_value());
    const sim::JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items().size(), 1u);
    const sim::JsonValue &row = rows->items()[0];
    EXPECT_EQ(row.find("router")->asString(), "rr");
    EXPECT_EQ(row.find("topology")->asString(), "pcie");
    EXPECT_EQ(row.find("migration")->asString(), "all");
    EXPECT_EQ(row.find("replicas")->asNumber(), 2.0);
}

TEST(SweepRunner, RunsEveryCellOverTheSharedTrace)
{
    const auto spec = parseSweep(kSmallSweep);
    sweep::SweepRunner runner(spec);
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 4u);
    std::set<std::string> systems;
    for (const auto &result : results) {
        systems.insert(result.cell.system);
        // Everything submitted on these short traces finishes.
        EXPECT_GT(result.report.stats.submitted, 0);
        EXPECT_EQ(result.report.stats.finished,
                  result.report.stats.submitted);
    }
    EXPECT_EQ(systems.size(), 2u);
    // Identical arrivals at a load: submitted counts match per trace.
    EXPECT_EQ(results[0].report.stats.submitted,
              results[2].report.stats.submitted);
    EXPECT_EQ(results[1].report.stats.submitted,
              results[3].report.stats.submitted);
}
