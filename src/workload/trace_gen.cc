#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "simkit/check.h"
#include "simkit/distributions.h"
#include "simkit/fields.h"

namespace chameleon::workload {

using model::AdapterId;
using sim::Rng;

double
LengthDist::approxMean() const
{
    return median * std::exp(0.5 * sigma * sigma);
}

TraceGenConfig
splitwiseLike()
{
    // Azure conversation trace scaled down to testbed memory, as the
    // paper does (§3.2): heavy-tailed lengths with medians well below
    // the clamp so a small fraction of requests dominates memory/time.
    TraceGenConfig cfg;
    cfg.input = LengthDist{64.0, 0.9, 4, 768};
    cfg.output = LengthDist{48.0, 0.85, 2, 512};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

TraceGenConfig
wildchatLike()
{
    TraceGenConfig cfg;
    cfg.input = LengthDist{40.0, 0.8, 4, 512};
    cfg.output = LengthDist{32.0, 0.75, 2, 320};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

TraceGenConfig
lmsysLike()
{
    TraceGenConfig cfg;
    cfg.input = LengthDist{32.0, 0.85, 4, 512};
    cfg.output = LengthDist{36.0, 0.7, 2, 320};
    cfg.burstMultiplier = 2.5;
    return cfg;
}

sim::EnumTable<Popularity>
enumTable(Popularity)
{
    static constexpr sim::EnumName<Popularity> kNames[] = {
        {Popularity::Uniform, "uniform"},
        {Popularity::PowerLaw, "powerlaw"},
    };
    return kNames;
}

sim::EnumTable<TracePreset>
enumTable(TracePreset)
{
    static constexpr sim::EnumName<TracePreset> kNames[] = {
        {TracePreset::Splitwise, "splitwise"},
        {TracePreset::Wildchat, "wildchat"},
        {TracePreset::Lmsys, "lmsys"},
    };
    return kNames;
}

TraceGenConfig
presetConfig(TracePreset preset)
{
    return preset == TracePreset::Wildchat ? wildchatLike()
           : preset == TracePreset::Lmsys  ? lmsysLike()
                                           : splitwiseLike();
}

void
applyTenantStorm(TraceGenConfig *config, double multiplier)
{
    if (multiplier <= 1.0)
        return;
    config->stormTenant = 0;
    config->stormMultiplier = multiplier;
    config->stormStartSeconds = 0.25 * config->durationSeconds;
    config->stormEndSeconds = 0.75 * config->durationSeconds;
}

std::string
traceLoadProblem(const TraceGenConfig &config, const std::string &rpsKey,
                 const std::string &durationKey)
{
    constexpr sim::Domain load = sim::positive();
    constexpr sim::Domain span = sim::positive(sim::kMaxSpanSeconds);
    if (!load.contains(config.rps))
        return sim::domainError(rpsKey, load, sim::formatDouble(config.rps));
    if (!span.contains(config.durationSeconds)) {
        return sim::domainError(durationKey, span,
                                sim::formatDouble(config.durationSeconds));
    }
    // Periodic bursts keep the mean rate; a storm raises one tenant's.
    const double expected = config.rps * config.durationSeconds *
                            std::max(1.0, config.stormMultiplier);
    if (expected > kMaxTraceRequests) {
        return rpsKey + " x " + durationKey + " expects up to " +
               sim::formatDouble(expected) + " requests, above the " +
               sim::formatDouble(kMaxTraceRequests) +
               " a generated trace may hold";
    }
    // generateTenant's arithmetic, for one equal-share tenant: its rate
    // between bursts, and inside a burst and the storm.
    const int tenants = std::max(1, config.numTenants);
    double base = config.rps * (1.0 / tenants);
    double peak = base;
    std::string bursts;
    if (config.burstMultiplier > 1.0 && config.burstPeriodSeconds > 0) {
        const double p = config.burstPeriodSeconds;
        const double d = std::min(config.burstDurationSeconds, p);
        const double m = config.burstMultiplier;
        base = base * p / ((p - d) + d * m);
        peak = base * m;
        bursts = " under burst_multiplier " + sim::formatDouble(m) +
                 " for burst_duration_s " +
                 sim::formatDouble(config.burstDurationSeconds) +
                 " of every burst_period_s " + sim::formatDouble(p);
    }
    if (!(base > 0.0)) {
        return rpsKey + " " + sim::formatDouble(config.rps) + " over " +
               std::to_string(tenants) + " tenant(s)" + bursts +
               " leaves a base arrival rate that underflows to 0";
    }
    peak *= std::max(1.0, config.stormMultiplier);
    if (!(peak <= kMaxArrivalRate)) {
        return rpsKey + " " + sim::formatDouble(config.rps) + " peaks at " +
               sim::formatDouble(peak) + " requests/s per tenant" + bursts +
               ", above the " + sim::formatDouble(kMaxArrivalRate) +
               " per second a trace may reach on its microsecond clock";
    }
    return "";
}

TraceGenerator::TraceGenerator(TraceGenConfig config,
                               const model::AdapterPool *pool)
    : config_(std::move(config)), pool_(pool)
{
    if (config_.numAdapters > 0) {
        CHM_CHECK(pool_ != nullptr, "adapter workload needs a pool");
        CHM_CHECK(pool_->size() >= config_.numAdapters,
                  "pool smaller than requested adapter count");
        // Group adapter ids by rank so rank popularity and within-rank
        // popularity can be drawn independently (§5.1).
        std::map<int, std::vector<AdapterId>> byRank;
        for (int id = 0; id < config_.numAdapters; ++id)
            byRank[pool_->spec(id).rank].push_back(id);
        for (auto &[rank, ids] : byRank)
            rankBuckets_.push_back(std::move(ids));
        const double rank_alpha =
            config_.rankPopularity == Popularity::PowerLaw
                ? config_.powerLawAlpha : 0.0;
        const double adapter_alpha =
            config_.adapterPopularity == Popularity::PowerLaw
                ? config_.powerLawAlpha : 0.0;
        rankSampler_ = std::make_unique<sim::PowerLawSampler>(
            rankBuckets_.size(), rank_alpha);
        for (const auto &ids : rankBuckets_)
            withinSamplers_.emplace_back(ids.size(), adapter_alpha);
    }
}

std::int64_t
TraceGenerator::sampleLength(const LengthDist &dist, Rng &rng) const
{
    const double mu = std::log(dist.median);
    const double x = sim::sampleLognormal(rng, mu, dist.sigma);
    const auto tokens = static_cast<std::int64_t>(std::llround(x));
    return std::clamp(tokens, dist.minTokens, dist.maxTokens);
}

AdapterId
TraceGenerator::sampleAdapter(Rng &rng) const
{
    if (rankBuckets_.empty())
        return model::kNoAdapter;
    const auto bucket = rankSampler_->sample(rng);
    const auto &ids = rankBuckets_[bucket];
    return ids[withinSamplers_[bucket].sample(rng)];
}

std::vector<double>
TraceGenerator::normalisedShares() const
{
    const auto n = static_cast<std::size_t>(config_.numTenants);
    std::vector<double> shares = config_.tenantShares;
    if (shares.empty())
        shares.assign(n, 1.0);
    CHM_CHECK(shares.size() == n,
              "tenant_shares must be empty or have one entry per tenant");
    double total = 0.0;
    for (const double s : shares) {
        CHM_CHECK(s > 0.0, "tenant shares must be positive");
        total += s;
    }
    for (double &s : shares)
        s /= total;
    return shares;
}

/**
 * One tenant's arrival process: the same modulated-Poisson loop as the
 * single-tenant path, at `shareRps`, plus the noisy-neighbour storm
 * window when this tenant is the storm tenant.
 */
std::vector<Request>
TraceGenerator::generateTenant(TenantId tenant, double shareRps,
                               Rng root) const
{
    Rng arrivalRng = root.split();
    Rng lengthRng = root.split();
    Rng adapterRng = root.split();

    const bool storming = tenant == config_.stormTenant &&
                          config_.stormMultiplier > 1.0 &&
                          config_.stormEndSeconds > config_.stormStartSeconds;
    std::vector<Request> reqs;
    // Size for the mean arrival count (+5%): one allocation instead of
    // a doubling chain of copies. Only a hint, capped; modulation may
    // exceed it.
    const double expected =
        1.05 * shareRps * std::max(0.0, config_.durationSeconds) + 64.0;
    reqs.reserve(static_cast<std::size_t>(std::min(expected, 0x1p24)));
    const sim::SimTime horizon = sim::fromSeconds(config_.durationSeconds);
    sim::SimTime t = 0;
    double base_rate = shareRps;
    if (config_.burstMultiplier > 1.0 && config_.burstPeriodSeconds > 0) {
        const double p = config_.burstPeriodSeconds;
        const double d =
            std::min(config_.burstDurationSeconds, config_.burstPeriodSeconds);
        const double m = config_.burstMultiplier;
        base_rate = shareRps * p / ((p - d) + d * m);
    }
    while (true) {
        double rate = base_rate;
        const double now_s = sim::toSeconds(t);
        if (config_.burstMultiplier > 1.0 && config_.burstPeriodSeconds > 0) {
            const double phase =
                now_s - std::floor(now_s / config_.burstPeriodSeconds) *
                            config_.burstPeriodSeconds;
            if (phase < config_.burstDurationSeconds)
                rate *= config_.burstMultiplier;
        }
        for (const auto &b : config_.bursts) {
            if (now_s >= b.startSeconds && now_s < b.endSeconds)
                rate *= b.rateMultiplier;
        }
        if (storming && now_s >= config_.stormStartSeconds &&
            now_s < config_.stormEndSeconds)
            rate *= config_.stormMultiplier;
        // A gap past every horizon ends the trace; capped, it cannot
        // overflow SimTime.
        const double gap_s = sim::sampleExponential(arrivalRng, rate);
        t += sim::fromSeconds(std::min(gap_s, 2 * sim::kMaxSpanSeconds));
        if (t > horizon)
            break;
        Request r;
        r.arrival = t;
        r.inputTokens = sampleLength(config_.input, lengthRng);
        r.outputTokens = sampleLength(config_.output, lengthRng);
        r.adapter = sampleAdapter(adapterRng);
        if (config_.tenantAdapterSkew && r.adapter != model::kNoAdapter &&
            config_.numTenants > 1) {
            // Rotate each tenant's draws through a different slice of
            // the adapter space: per-tenant skew, unchanged marginal.
            const int span = config_.numAdapters;
            const int shift = tenant * (span / config_.numTenants);
            r.adapter = (r.adapter + shift) % span;
        }
        r.tenant = tenant;
        reqs.push_back(r);
    }
    return reqs;
}

Trace
TraceGenerator::generate()
{
    if (config_.numTenants <= 1) {
        // Pre-tenancy code path, byte-identical draws: the seed-root rng
        // is handed straight to generateTenant, whose three splits are
        // exactly the arrival/length/adapter streams the old loop drew —
        // golden traces and every existing preset stay unchanged.
        std::vector<Request> reqs = generateTenant(
            kAnonymousTenant, config_.rps, Rng(config_.seed));
        RequestId next_id = 0;
        for (auto &r : reqs)
            r.id = next_id++;
        return Trace(std::move(reqs));
    }

    const std::vector<double> shares = normalisedShares();
    Rng rng(config_.seed);
    std::vector<std::vector<Request>> parts;
    std::size_t total = 0;
    for (int tenant = 0; tenant < config_.numTenants; ++tenant) {
        parts.push_back(generateTenant(
            tenant, config_.rps * shares[tenant], rng.split()));
        total += parts.back().size();
    }
    std::vector<Request> merged;
    merged.reserve(total);
    for (const auto &part : parts)
        merged.insert(merged.end(), part.begin(), part.end());
    parts.clear(); // before the sort allocates its buffer
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Request &a, const Request &b) {
                         if (a.arrival != b.arrival)
                             return a.arrival < b.arrival;
                         return a.tenant < b.tenant;
                     });
    RequestId next_id = 0;
    for (auto &r : merged)
        r.id = next_id++;
    return Trace(std::move(merged));
}

} // namespace chameleon::workload
