/**
 * @file
 * Cache-fabric test layer: the residency directory churned against a
 * brute-force reference model, peer-to-peer migration behaviour, the
 * preset registries' rejection paths, and sweep thread-stress with
 * migration enabled.
 *
 * The tentpole invariant: the ResidencyDirectory — fed only by the
 * cache managers' residency callbacks — never disagrees with the
 * per-replica cache contents it mirrors, under arbitrary interleavings
 * of acquire/release/shrink/peer-admit/evict churn.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chameleon/cache_manager.h"
#include "chameleon/spec_json.h"
#include "fabric/cache_fabric.h"
#include "model/cost_model.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/simulator.h"
#include "sweep/sweep_runner.h"

using namespace chameleon;

namespace {

/** A small cluster of real cache managers over one simulator, wired
 * into one directory exactly as DataParallelCluster wires them. */
struct ClusterFixture
{
    static constexpr int kReplicas = 3;
    static constexpr int kAdapters = 12;

    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), kAdapters};
    model::CostModel cost{model::llama7B(), model::a40()};
    fabric::ResidencyDirectory directory;
    std::vector<std::unique_ptr<gpu::GpuMemory>> mems;
    std::vector<std::unique_ptr<gpu::PcieLink>> links;
    std::vector<std::unique_ptr<core::CacheManager>> mgrs;

    explicit ClusterFixture(std::int64_t capacity = 120ll << 20)
    {
        for (int r = 0; r < kReplicas; ++r) {
            mems.push_back(
                std::make_unique<gpu::GpuMemory>(capacity, 0, 0));
            links.push_back(std::make_unique<gpu::PcieLink>(
                simulator, [this](std::int64_t bytes) {
                    return cost.adapterLoadTime(bytes);
                }));
            mgrs.push_back(std::make_unique<core::CacheManager>(
                pool, *mems[r], *links[r], cost));
            mgrs[r]->setResidencyListener(&directory, r);
        }
    }
};

} // namespace

/**
 * Randomised churn: acquire/release/KV-shrink/peer-admit across three
 * replicas, checking after every quiescent point that the directory
 * agrees with each cache manager (the brute-force reference model) on
 * residency, holdings, and entry counts — and that no refcount ever
 * goes negative.
 */
TEST(FabricDirectory, ChurnNeverDisagreesWithCaches)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        // Tight capacity: ~7 rank-8 adapters fit, so demand loads and
        // KV shrinks evict constantly.
        ClusterFixture f;
        std::mt19937_64 rng(seed);
        // refs[r][a] mirrors the running refcounts we are allowed to
        // release (the reference model's in-use set).
        int refs[ClusterFixture::kReplicas][ClusterFixture::kAdapters] =
            {};

        for (int step = 0; step < 400; ++step) {
            const int r = static_cast<int>(
                rng() % ClusterFixture::kReplicas);
            const int a = static_cast<int>(
                rng() % ClusterFixture::kAdapters);
            const auto now = f.simulator.now();
            switch (rng() % 5) {
              case 0:
              case 1:
                // A declined acquire (memory pressure, nothing
                // evictable) takes no reference.
                if (f.mgrs[r]->acquire(a, now) != sim::kTimeNever)
                    ++refs[r][a];
                break;
              case 2:
                if (refs[r][a] > 0) {
                    f.mgrs[r]->release(a);
                    --refs[r][a];
                }
                break;
              case 3:
                f.mgrs[r]->tryFreeMemory(
                    static_cast<std::int64_t>(rng() % (30ll << 20)));
                break;
              default:
                // Peer-admit as the fabric would: weights arrive over
                // a peer link a little later.
                f.mgrs[r]->peerAdmit(a, now + 500, now);
                break;
            }
            // Drain to quiescence so Loading entries settle, then
            // compare the directory against the ground truth.
            f.simulator.run();
            std::size_t totalHeld = 0;
            for (int replica = 0; replica < ClusterFixture::kReplicas;
                 ++replica) {
                std::size_t held = 0;
                for (model::AdapterId id = 0;
                     id < ClusterFixture::kAdapters; ++id) {
                    const bool cacheSays =
                        f.mgrs[replica]->isResident(id);
                    ASSERT_EQ(f.directory.isResident(
                                  id, static_cast<std::size_t>(replica)),
                              cacheSays)
                        << "seed " << seed << " step " << step
                        << ": directory disagrees with replica "
                        << replica << " about adapter " << id;
                    const auto *h = f.directory.holding(
                        id, static_cast<std::size_t>(replica));
                    if (h != nullptr) {
                        ++held;
                        ASSERT_GE(h->refcount, 0);
                        ASSERT_EQ(h->refcount, refs[replica][id])
                            << "seed " << seed << " step " << step;
                    } else {
                        ASSERT_EQ(refs[replica][id], 0);
                    }
                }
                ASSERT_EQ(f.directory.replicaEntryCount(
                              static_cast<std::size_t>(replica)),
                          held);
                totalHeld += held;
            }
            ASSERT_EQ(f.directory.totalEntries(), totalHeld);
        }
    }
}

/** residentReplicas returns ascending engine indices, Resident only. */
TEST(FabricDirectory, ResidentReplicasAscendingAndTierAware)
{
    fabric::ResidencyDirectory dir;
    for (int replica : {2, 0, 1}) {
        dir.onLoadStart(replica, 7);
        dir.onLoadComplete(replica, 7);
    }
    dir.onLoadStart(3, 7); // still Loading: must not be listed
    std::vector<std::size_t> out;
    dir.residentReplicas(7, &out);
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_TRUE(dir.holds(7, 3));
    EXPECT_FALSE(dir.isResident(7, 3));
}

/** Heat order: uses desc, then last-use desc, then id asc. */
TEST(FabricDirectory, HottestIsDeterministic)
{
    fabric::ResidencyDirectory dir;
    for (model::AdapterId id : {1, 2, 3}) {
        dir.onLoadStart(0, id);
        dir.onLoadComplete(0, id);
    }
    dir.onAcquire(0, 2, 10);
    dir.onRelease(0, 2);
    dir.onAcquire(0, 2, 20);
    dir.onRelease(0, 2);
    dir.onAcquire(0, 1, 30);
    dir.onRelease(0, 1);
    dir.onAcquire(0, 3, 30);
    dir.onRelease(0, 3);
    // 2 has two uses; 1 and 3 tie on uses and last-use -> id ascending.
    EXPECT_EQ(dir.hottest(3),
              (std::vector<model::AdapterId>{2, 1, 3}));
    EXPECT_EQ(dir.hottestIdleOn(0, 2),
              (std::vector<model::AdapterId>{2, 1}));
}

/** Double release is a bookkeeping bug, caught at the directory. */
TEST(FabricDirectoryDeathTest, DoubleReleaseAborts)
{
    fabric::ResidencyDirectory dir;
    dir.onLoadStart(0, 5);
    dir.onLoadComplete(0, 5);
    dir.onAcquire(0, 5, 10);
    dir.onRelease(0, 5);
    EXPECT_DEATH(dir.onRelease(0, 5), "release without acquire");
}

/** Scale-up warming: the new replica pulls the hot set over the peer
 * topology — no host PCIe transfer is started on the destination. */
TEST(CacheFabric, ScaleUpWarmsFromPeersNotHost)
{
    ClusterFixture f(2ll << 30);
    fabric::FabricConfig cfg;
    cfg.migration = fabric::MigrationPolicy::All;
    cfg.topK = 2;
    fabric::CacheFabric fab(f.simulator, f.pool, cfg);
    for (int r = 0; r < ClusterFixture::kReplicas; ++r)
        fab.attachReplica(static_cast<std::size_t>(r), *f.mgrs[r]);

    // Warm replica 0: adapters 4 and 5 become the global hot set.
    for (model::AdapterId id : {4, 5}) {
        for (int uses = 0; uses < 3; ++uses) {
            f.mgrs[0]->acquire(id, f.simulator.now());
            f.simulator.run();
            f.mgrs[0]->release(id);
        }
    }
    const auto hostTransfersBefore = f.links[1]->totalTransfers();
    fab.onScaleUp(1, f.simulator.now());
    f.simulator.run();

    EXPECT_TRUE(f.mgrs[1]->isResident(4));
    EXPECT_TRUE(f.mgrs[1]->isResident(5));
    EXPECT_EQ(f.mgrs[1]->peerLoads(), 2);
    EXPECT_EQ(f.links[1]->totalTransfers(), hostTransfersBefore);
    EXPECT_EQ(fab.migrations(), 2);
    EXPECT_GT(fab.peerBytes(), 0);
    // attachReplica re-pointed the residency feed at the fabric's own
    // directory; it saw the peer loads land like any other load.
    EXPECT_TRUE(fab.directory().isResident(4, 1));
    EXPECT_TRUE(fab.directory().isResident(5, 1));
}

/** Drain pushes the drained replica's hot idle entries to survivors. */
TEST(CacheFabric, DrainEvacuatesHotIdleEntries)
{
    ClusterFixture f(2ll << 30);
    fabric::FabricConfig cfg;
    cfg.migration = fabric::MigrationPolicy::Drain;
    cfg.topK = 2;
    fabric::CacheFabric fab(f.simulator, f.pool, cfg);
    for (int r = 0; r < ClusterFixture::kReplicas; ++r)
        fab.attachReplica(static_cast<std::size_t>(r), *f.mgrs[r]);

    for (model::AdapterId id : {8, 9}) {
        f.mgrs[2]->acquire(id, f.simulator.now());
        f.simulator.run();
        f.mgrs[2]->release(id);
    }
    fab.onDrain(2, {0, 1}, f.simulator.now());
    f.simulator.run();
    EXPECT_EQ(fab.migrations(), 2);
    for (model::AdapterId id : {8, 9}) {
        EXPECT_TRUE(fab.directory().isResident(id, 0) ||
                    fab.directory().isResident(id, 1))
            << "adapter " << id << " lost on drain";
    }
}

/** NvLink beats PCIe peer links on the same transfer. */
TEST(TransferTopology, PresetBandwidthOrdering)
{
    sim::Simulator simA, simB;
    fabric::TransferTopology pcie(simA, fabric::TopologyKind::PciePeer);
    fabric::TransferTopology nvlink(simB, fabric::TopologyKind::NvLink);
    const std::int64_t bytes = 100ll << 20;
    EXPECT_LT(nvlink.earliestCompletion(0, 1, bytes),
              pcie.earliestCompletion(0, 1, bytes));
    // Reservations serialise FIFO per ordered pair.
    const auto first = pcie.transfer(0, 1, bytes);
    const auto second = pcie.transfer(0, 1, bytes);
    EXPECT_GT(second, first);
    EXPECT_EQ(pcie.peerTransfers(), 2);
    EXPECT_EQ(pcie.peerBytes(), 2 * bytes);
}

// --- rejection paths: every preset name fails with the known list ---

TEST(FabricSpecRejection, UnknownMigrationInSpecJson)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"fabric": {"migration": "sideways"}})", &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric.migration"), std::string::npos) << error;
    EXPECT_NE(error.find("scale-up"), std::string::npos) << error;
    EXPECT_NE(error.find("all"), std::string::npos) << error;
}

TEST(FabricSpecRejection, UnknownTopologyInSpecJson)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"fabric": {"topology": "token-ring"}})", &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric.topology"), std::string::npos) << error;
    EXPECT_NE(error.find("nvlink"), std::string::npos) << error;
}

TEST(FabricSpecRejection, FabricNeedsChameleonCache)
{
    std::string error;
    const auto spec = core::specFromJson(
        R"({"adapters": {"policy": "slora"},
            "fabric": {"migration": "all"},
            "cluster": {"replicas": 2}})",
        &error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find("fabric"), std::string::npos) << error;
}

TEST(FabricSpecRejection, UnknownMigrationInSweepAxis)
{
    std::string error;
    EXPECT_FALSE(
        sweep::sweepFromJson(
            R"({"systems": ["chameleon"], "migrations": ["sideways"]})",
            &error)
            .has_value());
    EXPECT_NE(error.find("migrations[0]"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown value \"sideways\""), std::string::npos)
        << error;
    EXPECT_NE(error.find("scale-up"), std::string::npos) << error;
}

TEST(FabricSpecRejection, UnknownTopologyInSweepAxis)
{
    std::string error;
    EXPECT_FALSE(
        sweep::sweepFromJson(
            R"({"systems": ["chameleon"], "topologies": ["token-ring"]})",
            &error)
            .has_value());
    EXPECT_NE(error.find("topologies[0]"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown value \"token-ring\""), std::string::npos)
        << error;
    EXPECT_NE(error.find("pcie"), std::string::npos) << error;
}

TEST(FabricSpecRejection, NamesRoundTripThroughRegistries)
{
    for (const auto policy :
         {fabric::MigrationPolicy::Off, fabric::MigrationPolicy::ScaleUp,
          fabric::MigrationPolicy::Drain, fabric::MigrationPolicy::Remap,
          fabric::MigrationPolicy::All}) {
        fabric::MigrationPolicy parsed;
        ASSERT_TRUE(fabric::migrationPolicyByName(
            fabric::migrationPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    for (const auto kind : {fabric::TopologyKind::PciePeer,
                            fabric::TopologyKind::NvLink}) {
        fabric::TopologyKind parsed;
        ASSERT_TRUE(
            fabric::topologyByName(fabric::topologyName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
}

/**
 * Thread-stress: the same migration-enabled sweep grid at 1, 2, and 8
 * worker threads produces identical per-cell event hashes — migrations
 * order through each cell's own calendar queue, never across threads.
 */
TEST(FabricSweep, MigrationCellsThreadCountInvariant)
{
    auto makeSpec = [](int threads) {
        sweep::SweepSpec spec;
        spec.name = "fabric_stress";
        spec.systems = {"chameleon"};
        spec.loads = {10.0};
        spec.replicas = {2};
        spec.routers = {routing::RouterPolicy::AdapterAffinityDirectory,
                        routing::RouterPolicy::AdapterAffinityCacheAware};
        spec.autoscale = {true};
        spec.autoscaler.minReplicas = 1;
        spec.autoscaler.maxReplicas = 4;
        spec.autoscaler.evalPeriodSeconds = 5.0;
        spec.autoscaler.replicaServiceRps = 6.0;
        spec.migrations = {fabric::MigrationPolicy::All};
        spec.workload.durationSeconds = 30.0;
        spec.workload.adapters = 24;
        spec.seed = 99;
        spec.threads = threads;
        return spec;
    };
    std::vector<std::uint64_t> reference;
    for (int threads : {1, 2, 8}) {
        sweep::SweepRunner runner(makeSpec(threads));
        const auto results = runner.run();
        ASSERT_EQ(results.size(), 2u);
        std::vector<std::uint64_t> hashes;
        std::int64_t migrations = 0;
        for (const auto &result : results) {
            hashes.push_back(result.report.eventHash);
            migrations += result.report.fabricMigrations;
            EXPECT_TRUE(result.report.fabricEnabled);
        }
        EXPECT_GT(migrations, 0)
            << "stress grid never migrated; the test is vacuous";
        if (reference.empty())
            reference = hashes;
        else
            EXPECT_EQ(hashes, reference)
                << "event hashes changed at " << threads << " threads";
    }
}
