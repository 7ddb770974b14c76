#include "chameleon/system.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <map>
#include <sstream>
#include <type_traits>

#include "fabric/cache_fabric.h"
#include "predict/history_predictor.h"
#include "routing/slo_admission.h"
#include "predict/length_predictor.h"
#include "serving/fifo_scheduler.h"
#include "serving/sjf_scheduler.h"
#include "serving/slo.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/check.h"
#include "tenancy/drr_scheduler.h"
#include "tenancy/tenant_table.h"
#include "tenancy/wfq_scheduler.h"

namespace chameleon::core {

using serving::EngineConfig;
using serving::ServingEngine;

namespace {

std::uint64_t eventStreamHash(const serving::DataParallelCluster &cluster,
                              const RunReport &report);

/**
 * Placeholder pool for base-only workloads: no request references an
 * adapter, so the manager never performs a lookup against it.
 */
const model::AdapterPool &
placeholderPool()
{
    static const model::AdapterPool pool(model::llama7B(),
                                         std::vector<int>{8});
    return pool;
}

/** Tenant weights/SLO scales from the spec's tenancy axis. */
tenancy::TenantTable
buildTenantTable(const TenancySpec &spec)
{
    tenancy::TenantTable table(spec.tenants);
    for (std::size_t i = 0; i < spec.weights.size(); ++i)
        table.setWeight(static_cast<tenancy::TenantId>(i), spec.weights[i]);
    for (std::size_t i = 0; i < spec.sloMultipliers.size(); ++i)
        table.setSloMultiplier(static_cast<tenancy::TenantId>(i),
                               spec.sloMultipliers[i]);
    return table;
}

std::unique_ptr<predict::OutputPredictor>
buildPredictor(const PredictorSpec &spec)
{
    if (spec.kind == PredictorKind::History)
        return std::make_unique<predict::HistoryLengthPredictor>();
    return std::make_unique<predict::LengthPredictor>(spec.accuracy,
                                                      spec.seed);
}

/**
 * Build one fully wired engine (scheduler + adapter manager) from the
 * spec's policy axes, on the given simulator. Every replica of the
 * Runner's cluster is built here; `replica` selects the resolved
 * per-replica engine config (heterogeneous fleets differ per index,
 * homogeneous specs resolve every index to spec.engine).
 */
std::unique_ptr<ServingEngine>
buildEngine(const SystemSpec &spec, std::size_t replica,
            const model::AdapterPool *pool, sim::Simulator &simulator,
            predict::OutputPredictor *predictor)
{
    const bool mlq = spec.scheduler.policy == SchedulerPolicy::Mlq;

    EngineConfig ecfg = spec.resolvedEngine(replica);
    switch (spec.reservation) {
      case ReservationPolicy::Auto:
        ecfg.predictedReservation = mlq;
        break;
      case ReservationPolicy::MaxTokens:
        ecfg.predictedReservation = false;
        break;
      case ReservationPolicy::Predicted:
        ecfg.predictedReservation = true;
        break;
    }
    if (spec.chunkedPrefill)
        ecfg.prefillChunkTokens = spec.chunkTokens;

    // Scheduler axis.
    std::unique_ptr<serving::Scheduler> scheduler;
    switch (spec.scheduler.policy) {
      case SchedulerPolicy::Fifo:
        scheduler = std::make_unique<serving::FifoScheduler>();
        break;
      case SchedulerPolicy::Sjf:
        scheduler = std::make_unique<serving::SjfScheduler>(
            spec.scheduler.sjfAgingPerSecond);
        break;
      case SchedulerPolicy::Mlq: {
        MlqConfig mcfg;
        mcfg.sloSeconds = spec.scheduler.sloSeconds;
        mcfg.refreshPeriod = spec.scheduler.refreshPeriod;
        mcfg.kvBytesPerToken = ecfg.model.kvBytesPerToken();
        const std::int64_t pool_bytes =
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.gpu.memBytes -
            ecfg.model.weightsBytes() -
            static_cast<std::int64_t>(ecfg.tpDegree) * ecfg.workspacePerGpu;
        CHM_CHECK(pool_bytes > 0, "model does not leave room for requests");
        mcfg.totalTokens = pool_bytes / mcfg.kvBytesPerToken;
        mcfg.bypassEnabled = spec.scheduler.bypass;
        mcfg.dynamic = spec.scheduler.dynamicQueues;
        mcfg.wrsForm = spec.scheduler.wrsForm;
        scheduler = std::make_unique<MlqScheduler>(mcfg, pool);
        break;
      }
      case SchedulerPolicy::Wfq:
        scheduler = std::make_unique<tenancy::WfqScheduler>(
            buildTenantTable(spec.tenancy));
        break;
      case SchedulerPolicy::Drr:
        scheduler = std::make_unique<tenancy::DrrScheduler>(
            buildTenantTable(spec.tenancy), spec.tenancy.drrQuantumTokens);
        break;
    }

    auto engine = std::make_unique<ServingEngine>(
        simulator, ecfg, pool, std::move(scheduler), predictor);

    // Adapter-management axis (needs the engine's memory/link objects).
    std::unique_ptr<serving::AdapterManager> mgr;
    if (pool == nullptr ||
        spec.adapters.policy != AdapterPolicy::ChameleonCache) {
        // Base-only workloads still need a manager object; the baseline
        // one degenerates gracefully when no adapters are referenced.
        const bool prefetch =
            spec.adapters.policy != AdapterPolicy::OnDemand;
        mgr = std::make_unique<serving::SLoraAdapterManager>(
            pool ? *pool : placeholderPool(), engine->memory(),
            engine->pcieLink(), prefetch);
    } else {
        CacheConfig ccfg;
        ccfg.eviction = spec.adapters.eviction;
        ccfg.predictivePrefetch = spec.adapters.predictivePrefetch;
        if (spec.adapters.predictivePrefetch)
            ccfg.predictiveTopK = spec.adapters.prefetchTopK;
        mgr = std::make_unique<CacheManager>(
            *pool, engine->memory(), engine->pcieLink(),
            engine->costModel(), ccfg);
    }
    engine->setAdapterManager(std::move(mgr));
    return engine;
}

/**
 * Run the trace span, then drain remaining events; the event graph is
 * finite, so the drain window only bounds the clock when the system
 * ends up idle-stalled.
 */
void
drainSimulation(sim::Simulator &simulator, const workload::Trace &trace,
                sim::SimTime drainWindow)
{
    simulator.runUntil(trace.duration());
    std::int64_t guard = 1ll << 40;
    while (simulator.pendingEvents() > 0 && guard-- > 0 &&
           simulator.now() < trace.duration() + drainWindow) {
        simulator.runUntil(simulator.now() + sim::kSec);
        if (simulator.pendingEvents() == 0)
            break;
    }
}

} // namespace

Runner::Runner(SystemSpec spec, const model::AdapterPool *pool)
    : spec_(std::move(spec)), pool_(pool)
{
    auto errors = spec_.validate();
    bool hardware = hasHardware(spec_.engine);
    for (const auto &engine : spec_.cluster.replicaEngines)
        hardware = hardware && hasHardware(engine);
    if (!hardware) {
        errors.push_back("no hardware: set engine.model and engine.gpu "
                         "(the presets leave them unset)");
    }
    if (!errors.empty()) {
        std::ostringstream os;
        os << "invalid SystemSpec '" << spec_.name << "':";
        for (const auto &e : errors)
            os << "\n  - " << e;
        CHM_FATAL(os.str());
    }
    // One predictor shared by all replicas (it is a per-request oracle,
    // not per-engine state).
    predictor_ = buildPredictor(spec_.predictor);
    const ClusterSpec &ccfg = spec_.cluster;
    std::unique_ptr<routing::Router> router =
        routing::makeRouter(ccfg.router, ccfg.routerConfig);
    if (ccfg.routerConfig.sloAdmission) {
        // SLO-critical tenants (multiplier < 1.0) bypass the base
        // policy for the fastest effective-rate replica; with the
        // default multiplier table the decorator never intercepts.
        router = std::make_unique<routing::SloAdmissionRouter>(
            std::move(router), spec_.tenancy.sloMultipliers);
    }
    cluster_ = std::make_unique<serving::DataParallelCluster>(
        sim_,
        [this](std::size_t replica) {
            return buildEngine(spec_, replica, pool_, sim_,
                               predictor_.get());
        },
        ccfg.replicas, std::move(router));
    if (ccfg.autoscale) {
        // replicaServiceRps rates the spec's base engine; per-replica
        // capacity factors divide each replica's nominal rate by it.
        cluster_->enableAutoscaler(
            ccfg.autoscaler, serving::nominalServiceRate(spec_.engine));
        // Default-policy scale-ups past the fleet list build the base
        // engine; pricing its boot for the boot-aware horizon needs
        // the config without building a replica.
        cluster_->setReferenceEngine(spec_.engine);
        if (ccfg.autoscaler.scaleUpPolicy !=
            routing::ScaleUpPolicy::Default) {
            // Catalogue for the hetero-aware scale-up policy: the
            // distinct per-replica fleet configs plus the base engine.
            std::vector<serving::EngineConfig> candidates;
            candidates.push_back(spec_.engine);
            for (const auto &engine : spec_.cluster.replicaEngines) {
                bool known = false;
                for (const auto &candidate : candidates)
                    known = known || candidate == engine;
                if (!known)
                    candidates.push_back(engine);
            }
            cluster_->setScaleUpCandidates(
                std::move(candidates),
                [this](const serving::EngineConfig &config) {
                    SystemSpec custom = spec_;
                    custom.engine = config;
                    custom.cluster.replicaEngines.clear();
                    return buildEngine(custom, 0, pool_, sim_,
                                       predictor_.get());
                });
        }
    }
    if (spec_.fabricEnabled()) {
        // Built only when the run needs it (migration on, or the
        // directory-backed router): non-fabric runs never construct a
        // fabric, so their event streams match the pre-fabric ones
        // byte-for-byte.
        fabric::FabricConfig fcfg;
        fcfg.migration = spec_.fabric.migration;
        fcfg.topology = spec_.fabric.topology;
        fcfg.topK = spec_.fabric.topK;
        fabric_ = std::make_unique<fabric::CacheFabric>(
            sim_, pool_ ? *pool_ : placeholderPool(), fcfg);
        cluster_->attachFabric(fabric_.get());
    }
}

Runner::~Runner() = default;

RunReport
Runner::run(const workload::Trace &trace, sim::SimTime drainWindow)
{
    cluster_->submitTrace(trace);
    drainSimulation(sim_, trace, drainWindow);
    cluster_->finalize();

    RunReport report;
    const auto &engines = cluster_->engines();
    if (engines.size() == 1) {
        // Keep the engine's full stats object (windowed TTFT and memory
        // time series) and the per-link rates — merging would drop them.
        report.stats = engines.front()->stats();
        const auto &link = engines.front()->pcieLink();
        report.pcieUtilisation = link.utilisation();
        report.pcieMeanBytesPerSec = link.bandwidthSeries().meanRate();
        report.pcieMaxBytesPerSec = link.bandwidthSeries().maxRate();
        report.pcieRateSeries = link.bandwidthSeries().ratePerSecond();
    } else {
        report.stats = cluster_->mergedStats();
    }
    report.pcieBytes = cluster_->totalPcieBytes();
    report.pcieTransfers = cluster_->totalPcieTransfers();
    report.cacheHitRate = report.stats.cacheHitRate();
    for (const auto &engine : engines) {
        if (auto *cache = dynamic_cast<CacheManager *>(
                &engine->adapterManager())) {
            report.cacheEvictions += cache->evictions();
        }
        if (auto *mlq =
                dynamic_cast<MlqScheduler *>(&engine->scheduler())) {
            report.mlqQueues = std::max(report.mlqQueues,
                                        mlq->queueCount());
        }
    }
    report.perReplicaFinished = cluster_->perReplicaFinished();
    report.perReplicaServiceRate = cluster_->serviceRates();
    report.perReplicaEffectiveRate = cluster_->effectiveServiceRates();
    report.peakReplicas = engines.size();
    report.finalActiveReplicas = cluster_->activeReplicas();
    report.scaleUps = cluster_->scaleUps();
    report.scaleDowns = cluster_->scaleDowns();
    const auto &boot = cluster_->bootStats();
    report.bootEvents = boot.boots;
    report.totalBootSeconds = sim::toSeconds(boot.totalBootTime);
    report.requestsDelayedByBoot = boot.requestsDelayedByBoot;
    if (fabric_ != nullptr) {
        report.fabricEnabled = true;
        report.fabricMigrations = fabric_->migrations();
        report.fabricPeerBytes = fabric_->peerBytes();
        report.fabricPeerTransfers = fabric_->peerTransfers();
    }

    // --- per-tenant accounting (post-simulation: pure record reads) ---
    const model::CostModel cost(spec_.engine.model, spec_.engine.gpu,
                                spec_.engine.tpDegree, spec_.engine.cost);
    if (sloMultiplier_ > 0.0 && !trace.empty()) {
        report.sloMultiplier = sloMultiplier_;
        report.sloSeconds = sim::toSeconds(
            serving::computeSlo(trace, cost, pool_, sloMultiplier_));
    }
    std::map<workload::TenantId, std::vector<serving::RequestRecord>>
        byTenant;
    for (const auto &rec : report.stats.records)
        byTenant[rec.tenant].push_back(rec);
    std::vector<double> weightedService;
    std::int64_t metOverall = 0;
    for (const auto &[tenant, records] : byTenant) {
        TenantReport tr;
        tr.tenant = tenant;
        tr.finished = static_cast<std::int64_t>(records.size());
        sim::PercentileTracker ttft;
        sim::PercentileTracker e2e;
        for (const auto &rec : records) {
            ttft.add(sim::toSeconds(rec.ttft));
            e2e.add(sim::toSeconds(rec.e2e));
        }
        tr.p50TtftSeconds = ttft.p50();
        tr.p99TtftSeconds = ttft.p99();
        tr.p50E2eSeconds = e2e.p50();
        tr.p99E2eSeconds = e2e.p99();
        const auto slowdown = serving::slowdowns(records, cost, pool_);
        tr.meanSlowdown = slowdown.mean();
        tr.p99Slowdown = slowdown.p99();
        if (report.sloSeconds > 0.0) {
            tr.sloSeconds = report.sloSeconds *
                            spec_.tenancy.sloMultiplierFor(tenant);
            std::int64_t met = 0;
            for (const auto &rec : records) {
                if (sim::toSeconds(rec.ttft) <= tr.sloSeconds)
                    ++met;
            }
            metOverall += met;
            tr.sloAttainment = static_cast<double>(met) /
                               static_cast<double>(records.size());
        }
        // Service per unit weight, not slowdown: FIFO equalises delay
        // (equal misery scores a perfect raw-slowdown index) while a
        // fair scheduler concentrates delay on the over-demanding
        // tenant; what WFQ/DRR equalise is weighted service.
        weightedService.push_back(static_cast<double>(tr.finished) /
                                  spec_.tenancy.weightFor(tenant));
        report.tenants.push_back(tr);
    }
    report.fairnessIndex = tenancy::jainIndex(weightedService);
    if (report.sloSeconds > 0.0 && report.stats.finished > 0) {
        report.sloAttainment = static_cast<double>(metOverall) /
                               static_cast<double>(report.stats.finished);
    }

    obs::MetricsRegistry registry;
    fillRunMetrics(registry, *cluster_, report);
    report.metrics = registry.snapshot();
    report.eventHash = eventStreamHash(*cluster_, report);
    return report;
}

namespace {

/** Streaming FNV-1a 64: the sink behind RunReport::eventHash. */
struct Fnv1a64Sink
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    append(const char *data, std::size_t size)
    {
        std::uint64_t h = hash;
        for (std::size_t i = 0; i < size; ++i) {
            h ^= static_cast<unsigned char>(data[i]);
            h *= 0x100000001b3ull;
        }
        hash = h;
    }
};

/** Collects the bytes: the sink behind canonicalEventStream. */
struct StringSink
{
    std::string text;

    void append(const char *data, std::size_t size)
    {
        text.append(data, size);
    }
};

/**
 * Buffered text writer over a sink. Integers format exactly as
 * std::ostream's operator<< does (std::to_chars: no locale, no
 * padding), so one formatter feeds both the hash and the text.
 */
template <typename Sink>
class StreamWriter
{
  public:
    explicit StreamWriter(Sink &sink) : sink_(sink) {}
    ~StreamWriter() { flush(); }

    StreamWriter &
    operator<<(const char *text)
    {
        const std::size_t n = std::strlen(text);
        reserve(n);
        if (n > kBufBytes) {
            sink_.append(text, n);
            return *this;
        }
        std::memcpy(buf_ + len_, text, n);
        len_ += n;
        return *this;
    }

    StreamWriter &
    operator<<(char c)
    {
        reserve(1);
        buf_[len_++] = c;
        return *this;
    }

    template <typename Int,
              typename = std::enable_if_t<std::is_integral_v<Int>>>
    StreamWriter &
    operator<<(Int value)
    {
        static_assert(!std::is_same_v<Int, bool> &&
                          !std::is_same_v<Int, signed char> &&
                          !std::is_same_v<Int, unsigned char>,
                      "operator<< prints these as characters");
        reserve(kMaxIntChars);
        const auto res = std::to_chars(buf_ + len_, buf_ + kBufBytes, value);
        len_ = static_cast<std::size_t>(res.ptr - buf_);
        return *this;
    }

    void
    flush()
    {
        sink_.append(buf_, len_);
        len_ = 0;
    }

  private:
    /** Longest integer: 20 digits of a uint64, or a sign + 19 digits. */
    static constexpr std::size_t kMaxIntChars = 20;
    static constexpr std::size_t kBufBytes = 4096;

    void
    reserve(std::size_t n)
    {
        if (len_ + n > kBufBytes)
            flush();
    }

    Sink &sink_;
    char buf_[kBufBytes];
    std::size_t len_ = 0;
};

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    Fnv1a64Sink sink;
    sink.append(text.data(), text.size());
    return sink.hash;
}

namespace {

/** Doubles by bit pattern: exact, locale- and printf-independent. */
std::uint64_t
doubleBits(double value)
{
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(value), "double is 64-bit");
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** The one definition of the canonical event stream's bytes. */
template <typename Sink>
void
writeCanonicalEventStream(const serving::DataParallelCluster &cluster,
                          const RunReport &report, Sink &sink)
{
    StreamWriter<Sink> os(sink);
    os << "finished=" << report.stats.finished
       << " scale_ups=" << report.scaleUps
       << " scale_downs=" << report.scaleDowns
       << " peak=" << report.peakReplicas
       << " final_active=" << report.finalActiveReplicas << '\n';
    const auto &engines = cluster.engines();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        for (const auto &r : engines[i]->stats().records) {
            os << i << ',' << r.id << ',' << r.arrival << ','
               << r.inputTokens << ',' << r.outputTokens << ','
               << r.adapter << ',' << r.rank << ',' << r.ttft << ','
               << r.e2e << ',' << r.queueDelay << ',' << r.adapterStall
               << ',' << doubleBits(r.wrs) << ',' << r.queueIndex << ','
               << r.squashCount << ',' << r.preemptCount << '\n';
        }
    }
}

/** fnv1a64(canonicalEventStream(...)) without building the string. */
std::uint64_t
eventStreamHash(const serving::DataParallelCluster &cluster,
                const RunReport &report)
{
    Fnv1a64Sink sink;
    writeCanonicalEventStream(cluster, report, sink);
    return sink.hash;
}

} // namespace

std::string
canonicalEventStream(const serving::DataParallelCluster &cluster,
                     const RunReport &report)
{
    StringSink sink;
    writeCanonicalEventStream(cluster, report, sink);
    return std::move(sink.text);
}

namespace {

/** Feed every sample of a PercentileTracker into a histogram. */
void
fillHistogram(obs::Histogram &histogram,
              const sim::PercentileTracker &tracker)
{
    for (const double v : tracker.sorted())
        histogram.add(v);
}

} // namespace

void
fillRunMetrics(obs::MetricsRegistry &registry,
               const serving::DataParallelCluster &cluster,
               const RunReport &report)
{
    const auto &engines = cluster.engines();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::string prefix = "replica" + std::to_string(i) + ".";
        const serving::EngineStats &s = engines[i]->stats();
        auto count = [&](const char *name, std::int64_t value) {
            registry.counter(prefix + name).inc(value);
        };
        count("requests.submitted", s.submitted);
        count("requests.finished", s.finished);
        count("requests.preemptions", s.preemptions);
        count("requests.squashes", s.squashes);
        count("requests.bypasses", s.bypasses);
        count("engine.iterations", s.iterations);
        count("engine.prefill_tokens", s.prefillTokens);
        count("engine.decode_tokens", s.decodeTokens);
        registry.gauge(prefix + "engine.busy_seconds")
            .set(sim::toSeconds(s.busyTime));
        registry.gauge(prefix + "engine.mean_batch_size")
            .set(s.iterations
                     ? static_cast<double>(s.batchSizeAccum) /
                           static_cast<double>(s.iterations)
                     : 0.0);
        if (i < report.perReplicaServiceRate.size()) {
            registry.gauge(prefix + "engine.service_rate_rps")
                .set(report.perReplicaServiceRate[i]);
        }
        count("cache.hits", s.adapterHits);
        count("cache.misses", s.adapterMisses);
        registry.gauge(prefix + "cache.hit_rate").set(s.cacheHitRate());
        if (const auto *cache = dynamic_cast<const CacheManager *>(
                &engines[i]->adapterManager())) {
            count("cache.evictions", cache->evictions());
            count("cache.demand_loads", cache->demandLoads());
            count("cache.queued_loads", cache->queuedLoads());
            count("cache.predictive_loads", cache->predictiveLoads());
            count("cache.peer_loads", cache->peerLoads());
        }
        count("pcie.bytes", engines[i]->pcieLink().totalBytes());
        count("pcie.transfers", engines[i]->pcieLink().totalTransfers());
        fillHistogram(registry.histogram(prefix + "latency.ttft_s"),
                      s.ttft);
        fillHistogram(registry.histogram(prefix + "latency.e2e_s"),
                      s.e2e);
        fillHistogram(
            registry.histogram(prefix + "latency.queue_delay_s"),
            s.queueDelay);
        fillHistogram(
            registry.histogram(prefix + "latency.load_stall_ms"),
            s.loadStall);
    }

    const serving::EngineStats &total = report.stats;
    registry.counter("cluster.requests.submitted").inc(total.submitted);
    registry.counter("cluster.requests.finished").inc(total.finished);
    registry.counter("cluster.requests.preemptions")
        .inc(total.preemptions);
    registry.counter("cluster.requests.squashes").inc(total.squashes);
    registry.counter("cluster.requests.bypasses").inc(total.bypasses);
    registry.gauge("cluster.cache.hit_rate").set(report.cacheHitRate);
    registry.counter("cluster.cache.evictions")
        .inc(report.cacheEvictions);
    registry.counter("cluster.pcie.bytes").inc(report.pcieBytes);
    registry.counter("cluster.pcie.transfers").inc(report.pcieTransfers);
    registry.counter("cluster.scaling.scale_ups").inc(report.scaleUps);
    registry.counter("cluster.scaling.scale_downs")
        .inc(report.scaleDowns);
    registry.counter("cluster.scaling.boots").inc(report.bootEvents);
    registry.gauge("cluster.scaling.boot_seconds")
        .set(report.totalBootSeconds);
    registry.counter("cluster.scaling.requests_delayed_by_boot")
        .inc(report.requestsDelayedByBoot);
    registry.counter("cluster.replicas.peak")
        .inc(static_cast<std::int64_t>(report.peakReplicas));
    registry.counter("cluster.replicas.final_active")
        .inc(static_cast<std::int64_t>(report.finalActiveReplicas));
    if (report.fabricEnabled) {
        registry.counter("fabric.migrations")
            .inc(report.fabricMigrations);
        registry.counter("fabric.peer_bytes").inc(report.fabricPeerBytes);
        registry.counter("fabric.peer_transfers")
            .inc(report.fabricPeerTransfers);
    }
    fillHistogram(registry.histogram("cluster.latency.ttft_s"),
                  total.ttft);
    fillHistogram(registry.histogram("cluster.latency.e2e_s"),
                  total.e2e);
    fillHistogram(registry.histogram("cluster.latency.queue_delay_s"),
                  total.queueDelay);

    // Tenancy groups: one "tenant.<id>.*" slice per tenant with
    // finished requests, plus the fleet-wide fairness index.
    registry.gauge("cluster.fairness.jain_index")
        .set(report.fairnessIndex);
    if (report.sloAttainment >= 0.0) {
        registry.gauge("cluster.slo.seconds").set(report.sloSeconds);
        registry.gauge("cluster.slo.attainment")
            .set(report.sloAttainment);
    }
    for (const auto &t : report.tenants) {
        const std::string prefix =
            "tenant." + std::to_string(t.tenant) + ".";
        registry.counter(prefix + "requests.finished").inc(t.finished);
        registry.gauge(prefix + "latency.p50_ttft_s")
            .set(t.p50TtftSeconds);
        registry.gauge(prefix + "latency.p99_ttft_s")
            .set(t.p99TtftSeconds);
        registry.gauge(prefix + "latency.p50_e2e_s").set(t.p50E2eSeconds);
        registry.gauge(prefix + "latency.p99_e2e_s").set(t.p99E2eSeconds);
        registry.gauge(prefix + "slowdown.mean").set(t.meanSlowdown);
        registry.gauge(prefix + "slowdown.p99").set(t.p99Slowdown);
        if (t.sloAttainment >= 0.0) {
            registry.gauge(prefix + "slo.seconds").set(t.sloSeconds);
            registry.gauge(prefix + "slo.attainment")
                .set(t.sloAttainment);
        }
    }
}

RunReport
runSpec(const SystemSpec &spec, const model::AdapterPool *pool,
        const workload::Trace &trace)
{
    Runner runner(spec, pool);
    return runner.run(trace);
}

RunReport
runSystem(const std::string &name,
          const std::function<void(SystemSpec &)> &configure,
          const model::AdapterPool *pool, const workload::Trace &trace)
{
    SystemSpec spec = SystemRegistry::global().lookup(name);
    if (configure)
        configure(spec);
    return runSpec(spec, pool, trace);
}

} // namespace chameleon::core
