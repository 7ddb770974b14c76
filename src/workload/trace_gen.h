/**
 * @file
 * Synthetic trace generation.
 *
 * Builds traces with the statistical properties of the paper's workloads
 * (§5.1): Poisson inter-arrival times, heavy-tailed (lognormal) input and
 * output lengths scaled to the testbed, and adapter assignment with a
 * configurable rank-popularity distribution across the five paper ranks
 * and a power-law adapter-popularity distribution within a rank. Presets
 * approximate the Azure/Splitwise conversation trace and the shorter
 * WildChat-1M / LMSYS-Chat-1M datasets (§5.4.4).
 */

#ifndef CHAMELEON_WORKLOAD_TRACE_GEN_H
#define CHAMELEON_WORKLOAD_TRACE_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "model/adapter.h"
#include "simkit/distributions.h"
#include "simkit/enum_table.h"
#include "simkit/rng.h"
#include "workload/trace.h"

namespace chameleon::workload {

/** Popularity shapes used in §5.4.2 (U-U / U-P / P-P). */
enum class Popularity { Uniform, PowerLaw };

/** Name table (simkit/enum_table.h): uniform | powerlaw. */
sim::EnumTable<Popularity> enumTable(Popularity);

/** Lognormal length distribution with clamping. */
struct LengthDist
{
    /** Median length in tokens (exp of the log-space mean). */
    double median = 48.0;
    /** Log-space standard deviation (tail heaviness). */
    double sigma = 1.0;
    std::int64_t minTokens = 4;
    std::int64_t maxTokens = 2000;

    /** Mean of the clamped distribution (analytic, pre-clamp approx). */
    double approxMean() const;
};

/** A temporary load burst: the arrival rate is multiplied inside it. */
struct Burst
{
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    double rateMultiplier = 1.0;
};

/** Full generator configuration. */
struct TraceGenConfig
{
    /** Poisson arrival rate, requests per second. */
    double rps = 8.0;
    /** Trace length in seconds. */
    double durationSeconds = 300.0;
    LengthDist input{};
    LengthDist output{};
    /** Number of distinct adapters (0 disables adapters entirely). */
    int numAdapters = 100;
    /** Popularity of the five rank classes. */
    Popularity rankPopularity = Popularity::Uniform;
    /** Popularity of adapters within a rank class. */
    Popularity adapterPopularity = Popularity::PowerLaw;
    /** Power-law exponent when a popularity knob is PowerLaw. */
    double powerLawAlpha = 1.2;
    /** Optional load bursts. */
    std::vector<Burst> bursts{};
    /**
     * Periodic burstiness (LLM arrivals come in bursts, §3.1): every
     * burstPeriodSeconds, the rate is multiplied by burstMultiplier for
     * burstDurationSeconds. Base and burst rates are normalised so the
     * mean load stays at `rps`. burstMultiplier = 1 disables this.
     */
    double burstMultiplier = 1.0;
    double burstPeriodSeconds = 60.0;
    double burstDurationSeconds = 8.0;
    /** RNG seed; same seed + config -> identical trace. */
    std::uint64_t seed = 42;
    /**
     * Multi-tenant generation. With numTenants <= 1 the generator takes
     * the exact pre-tenancy code path (every request gets tenant 0).
     * With more, each tenant runs an independent arrival process at
     * rps * share and the per-tenant streams are merged by arrival.
     */
    int numTenants = 1;
    /** Per-tenant fraction of `rps`; empty = equal shares (normalised). */
    std::vector<double> tenantShares{};
    /**
     * Noisy-neighbour storm: tenant `stormTenant` runs at
     * stormMultiplier x its share inside [stormStartSeconds,
     * stormEndSeconds). stormTenant < 0 or multiplier <= 1 disables it.
     */
    int stormTenant = -1;
    double stormMultiplier = 1.0;
    double stormStartSeconds = 0.0;
    double stormEndSeconds = 0.0;
    /**
     * When true each tenant favours a different slice of the adapter
     * space (its sampled adapter id is rotated by tenant index), giving
     * per-tenant popularity skew without changing the marginal mix.
     */
    bool tenantAdapterSkew = false;
};

/** Splitwise-like conversation workload (testbed-scaled lengths). */
TraceGenConfig splitwiseLike();
/** WildChat-1M-like workload: shorter inputs and outputs (§5.4.4). */
TraceGenConfig wildchatLike();
/** LMSYS-Chat-1M-like workload: short inputs, short outputs (§5.4.4). */
TraceGenConfig lmsysLike();

/** The named workload presets: the three functions above. */
enum class TracePreset
{
    Splitwise,
    Wildchat,
    Lmsys,
};

/** Name table (simkit/enum_table.h): splitwise | wildchat | lmsys. */
sim::EnumTable<TracePreset> enumTable(TracePreset);

/** The preset's generator configuration. */
TraceGenConfig presetConfig(TracePreset preset);

/**
 * The noisy-neighbour convention shared by the CLI, the sweep and
 * fig29: tenant 0 bursts to `multiplier` x its share over the middle
 * half of the trace, leaving clean head/tail windows for comparison.
 * Reads config->durationSeconds; multiplier <= 1 leaves it untouched.
 */
void applyTenantStorm(TraceGenConfig *config, double multiplier);

/**
 * Most requests a generated trace may expect: 2^22 (about 4.2
 * million). A run holds about 0.8 KB per request, so the cap keeps one
 * within about 3 GB. The CLI and the sweep reject larger loads at the
 * boundary; the generator itself takes whatever it is given.
 */
inline constexpr double kMaxTraceRequests = 1 << 22;

/**
 * Highest arrival rate a generated trace may reach, in requests per
 * second: kMaxTraceRequests per second. The clock ticks in
 * microseconds, so at rate R an exponential gap rounds to no time at
 * all with probability 1 - e^(-R / 2e6), and the generator draws about
 * e^(R / 2e6) arrivals per tick it advances. At this bound that is
 * about 8, twice what a continuous clock would draw; it grows
 * exponentially beyond (e^50 draws per tick at 1e8 per second).
 */
inline constexpr double kMaxArrivalRate = kMaxTraceRequests;

/**
 * Why `config` cannot be generated, or "": rps and durationSeconds
 * must be finite and > 0, the duration at most sim::kMaxSpanSeconds,
 * and the expected requests — rps x duration, times the storm
 * multiplier when one is set — at most kMaxTraceRequests. Between
 * bursts each equal-share tenant's rate must stay > 0, and at a burst
 * and storm peak the rate at most kMaxArrivalRate. The message names
 * the load as `rpsKey`, the duration as `durationKey` and the burst
 * knobs by their sweep-JSON keys (the only input that sets them).
 */
std::string traceLoadProblem(const TraceGenConfig &config,
                             const std::string &rpsKey,
                             const std::string &durationKey);

/** Generates traces and assigns adapters per the configuration. */
class TraceGenerator
{
  public:
    TraceGenerator(TraceGenConfig config, const model::AdapterPool *pool);

    /** Generate a full trace. */
    Trace generate();

    const TraceGenConfig &config() const { return config_; }

  private:
    std::int64_t sampleLength(const LengthDist &dist, sim::Rng &rng) const;
    model::AdapterId sampleAdapter(sim::Rng &rng) const;
    std::vector<Request> generateTenant(TenantId tenant, double shareRps,
                                        sim::Rng root) const;
    std::vector<double> normalisedShares() const;

    TraceGenConfig config_;
    const model::AdapterPool *pool_;
    std::vector<std::vector<model::AdapterId>> rankBuckets_;
    std::unique_ptr<sim::PowerLawSampler> rankSampler_;
    std::vector<sim::PowerLawSampler> withinSamplers_;
};

} // namespace chameleon::workload

#endif // CHAMELEON_WORKLOAD_TRACE_GEN_H
