/**
 * @file
 * Predictor-driven replica autoscaling.
 *
 * Pure decision logic for scaling a data-parallel cluster at simulation
 * time: the owning dispatcher reports arrivals and periodically asks for
 * the target active-replica count. Two signals are combined:
 *
 *  - queue-depth watermarks — the mean outstanding requests per active
 *    replica crossing the high (low) watermark votes to scale up
 *    (down); this reacts to load that has already queued;
 *  - a predict::LoadForecaster arrival-rate forecast — the predicted
 *    rate over the horizon, divided by the per-replica service
 *    capacity, gives a demand in replicas; this reacts to a building
 *    burst *before* the queues form (the same idea as §4.2.3's
 *    predictive prefetch, applied to capacity instead of adapters).
 *
 * Scale-up follows max(demand, +1 step) immediately after the up
 * cooldown; scale-down requires the low signal to persist for
 * `downCooldownPeriods` consecutive evaluations, then drains one
 * replica at a time so a lull does not collapse the cluster.
 *
 * Heterogeneous fleets: `replicaServiceRps` rates the *reference*
 * replica (the spec's base engine); every replica contributes to
 * capacity in proportion to its nominal service rate over the
 * reference's (its capacity factor — see CapacitySignals). Demand is
 * computed in reference-replica units and compared against the active
 * set's *aggregate* capacity factor, so two half-speed replicas absorb
 * the same forecast as one reference replica. On a homogeneous fleet
 * every factor is exactly 1.0 and the arithmetic reduces bit-for-bit
 * to the scalar form used before capacity factors existed.
 */

#ifndef CHAMELEON_ROUTING_AUTOSCALER_H
#define CHAMELEON_ROUTING_AUTOSCALER_H

#include <cstdint>
#include <string>

#include "predict/load_predictor.h"
#include "simkit/enum_table.h"
#include "simkit/fields.h"
#include "simkit/time.h"

namespace chameleon::obs {
class TraceRecorder;
}

namespace chameleon::routing {

/**
 * Which engine configuration a scale-up instantiates when the cluster
 * has a catalogue of candidate configs (a heterogeneous fleet).
 */
enum class ScaleUpPolicy {
    /** The engine factory's default for the next replica index (the
     * pre-catalogue behaviour; homogeneous fleets always use this). */
    Default,
    /** Lowest-capacity candidate whose rate still covers the forecast
     * shortfall (cheapest-that-meets-forecast; falls back to the
     * fastest candidate when none suffices alone). */
    Cheapest,
    /** Highest-capacity candidate, unconditionally. */
    Fastest,
};

/** Name table (simkit/enum_table.h); the wrappers below read it. */
sim::EnumTable<ScaleUpPolicy> enumTable(ScaleUpPolicy);

/** Canonical short name (also accepted by scaleUpPolicyByName). */
inline const char *scaleUpPolicyName(ScaleUpPolicy policy)
{
    return sim::enumName(policy);
}

/** Parse a policy name; returns false on unknown names. */
inline bool scaleUpPolicyByName(const std::string &name, ScaleUpPolicy *out)
{
    return sim::enumByName(name, out);
}

/** Comma-separated policy names, for error messages. */
inline const char *scaleUpPolicyNames()
{
    return sim::enumNames<ScaleUpPolicy>();
}

/**
 * Which per-replica service-rate estimate the cluster folds into the
 * CapacitySignals it hands each evaluation.
 */
enum class DemandSource {
    /** Static nominal rates (serving::nominalServiceRate) — the
     * pre-closed-loop behaviour, and the only option when measured
     * rates are disabled. */
    Nominal,
    /** Blended effective rates: the measured completion-rate EWMA
     * (serving::MeasuredRate) when measured_rate_alpha > 0, nominal
     * otherwise — demand-in-reference-units then tracks *achieved*
     * throughput, so a degraded fleet scales up earlier. */
    Measured,
};

/** Name table (simkit/enum_table.h); the wrappers below read it. */
sim::EnumTable<DemandSource> enumTable(DemandSource);

/** Canonical short name (also accepted by demandSourceByName). */
inline const char *demandSourceName(DemandSource source)
{
    return sim::enumName(source);
}

/** Parse a demand-source name; returns false on unknown names. */
inline bool demandSourceByName(const std::string &name, DemandSource *out)
{
    return sim::enumByName(name, out);
}

/** Comma-separated demand-source names, for error messages. */
inline const char *demandSourceNames()
{
    return sim::enumNames<DemandSource>();
}

/** Watermarks, bounds and cadence of the autoscaler. */
struct AutoscalerConfig
{
    std::size_t minReplicas = 1;
    std::size_t maxReplicas = 8;
    /** Evaluation cadence, seconds of simulation time. */
    double evalPeriodSeconds = 5.0;
    /** Scale up when mean outstanding per replica exceeds this. */
    double highWatermark = 24.0;
    /** Eligible to scale down when it drops below this. */
    double lowWatermark = 4.0;
    /** Forecast horizon handed to the LoadForecaster. */
    double forecastHorizonSeconds = 15.0;
    /** Sliding window of the arrival-rate forecaster, seconds. */
    double forecastWindowSeconds = 60.0;
    /**
     * Sustainable request rate of one *reference* replica (the base
     * engine), requests/s; converts the forecasted arrival rate into a
     * demand in reference-replica units. 0 disables the forecast
     * signal and leaves only the watermarks.
     */
    double replicaServiceRps = 0.0;
    /** Evaluations that must pass between consecutive scale-ups. */
    int upCooldownPeriods = 1;
    /** Consecutive low evaluations required before draining one. */
    int downCooldownPeriods = 3;
    /**
     * Cold-start boot constant, milliseconds: process start + runtime
     * init paid by every *newly built* replica on top of its weight
     * load (serving::ColdStartModel). 0 disables the cold-start model
     * entirely — scale-ups activate instantly, the pre-cold-start
     * behaviour pinned by tests/golden_trace_test.cc.
     */
    double bootMs = 0.0;
    /** Which candidate engine config a scale-up instantiates. */
    ScaleUpPolicy scaleUpPolicy = ScaleUpPolicy::Default;
    /**
     * EWMA weight of each newly observed per-replica completion rate
     * (serving::MeasuredRate), blended into the routing weights
     * (ClusterView::serviceWeight) so they self-correct under
     * load-dependent batching/cache effects. 0 disables measurement —
     * weights stay the static nominal estimates, bit-identically.
     */
    double measuredRateAlpha = 0.0;
    /**
     * Which rate estimate feeds the capacity factors the cluster
     * reports (CapacitySignals). Nominal keeps the static estimates —
     * bit-identical decisions; Measured uses the effective (measured
     * when alpha > 0) rates, so capacity tracks achieved throughput.
     */
    DemandSource demandSource = DemandSource::Nominal;
    /**
     * Stretch the forecast horizon to at least the boot time of the
     * replica the scale-up policy would actually add
     * (CapacitySignals::nextReplicaBootSeconds), so a scale-up is
     * triggered early enough for the new replica to finish booting
     * before the forecasted load lands — closing the fig28 race. Off
     * (the default) keeps the static forecast_horizon_s.
     */
    bool bootAwareHorizon = false;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        constexpr sim::Domain span = sim::positive(sim::kMaxSpanSeconds);
        // A cluster cannot drain to zero replicas.
        v.field("min_replicas", &AutoscalerConfig::minReplicas,
                sim::positive());
        v.field("max_replicas", &AutoscalerConfig::maxReplicas,
                sim::positive());
        // The next evaluation is scheduled one period ahead.
        v.field("eval_period_s", &AutoscalerConfig::evalPeriodSeconds,
                span);
        v.field("high_watermark", &AutoscalerConfig::highWatermark,
                sim::nonNegative());
        v.field("low_watermark", &AutoscalerConfig::lowWatermark,
                sim::nonNegative());
        v.field("forecast_horizon_s",
                &AutoscalerConfig::forecastHorizonSeconds,
                sim::nonNegative(sim::kMaxSpanSeconds));
        v.field("forecast_window_s",
                &AutoscalerConfig::forecastWindowSeconds, span);
        v.field("replica_service_rps", &AutoscalerConfig::replicaServiceRps,
                sim::nonNegative());
        v.field("up_cooldown_periods", &AutoscalerConfig::upCooldownPeriods,
                sim::nonNegative());
        v.field("down_cooldown_periods",
                &AutoscalerConfig::downCooldownPeriods, sim::nonNegative());
        v.field("boot_ms", &AutoscalerConfig::bootMs,
                sim::nonNegative(sim::kMaxSpanSeconds * 1e3));
        v.field("scale_up_policy", &AutoscalerConfig::scaleUpPolicy);
        v.field("measured_rate_alpha", &AutoscalerConfig::measuredRateAlpha,
                sim::within(0.0, 1.0));
        v.field("demand_source", &AutoscalerConfig::demandSource);
        v.field("boot_aware_horizon", &AutoscalerConfig::bootAwareHorizon);
    }
};

/** Field-wise equality (spec round-trip tests). */
inline bool operator==(const AutoscalerConfig &a, const AutoscalerConfig &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator!=(const AutoscalerConfig &a, const AutoscalerConfig &b)
{
    return !(a == b);
}

/**
 * Capacity of the active set in reference-replica units, supplied by
 * the cluster each evaluation. A replica's capacity factor is its
 * nominal service rate divided by the reference (base-engine) rate;
 * homogeneous fleets pass exactly 1.0 per replica.
 */
struct CapacitySignals
{
    /** Sum of the active (and still-booting) replicas' factors. */
    double activeCapacityFactor = 0.0;
    /** Factor of the replica the next scale-up step would add. */
    double nextReplicaFactor = 1.0;
    /**
     * Boot latency of that same next replica, seconds: the remaining
     * boot of a drained-mid-boot reactivation, or ColdStartModel
     * weight-load + boot_ms for a fresh build. 0 while the cold-start
     * model is disabled. Only read when
     * AutoscalerConfig::bootAwareHorizon is on.
     */
    double nextReplicaBootSeconds = 0.0;
};

/** Decides the target active-replica count; owns the forecaster. */
class Autoscaler
{
  public:
    explicit Autoscaler(AutoscalerConfig config);

    /** Report one request arrival (feeds the forecaster). */
    void onArrival(sim::SimTime now);

    /**
     * One evaluation: given the current active count and the total
     * outstanding requests across active replicas, return the new
     * target count in [minReplicas, maxReplicas]. The homogeneous
     * convenience form — equivalent to capacity factors of exactly
     * 1.0 per replica.
     */
    std::size_t evaluate(std::size_t activeReplicas,
                         std::int64_t totalOutstanding, sim::SimTime now);

    /** Heterogeneity-aware evaluation (see CapacitySignals). */
    std::size_t evaluate(std::size_t activeReplicas,
                         std::int64_t totalOutstanding, sim::SimTime now,
                         const CapacitySignals &capacity);

    /**
     * Forecast demand of the last evaluation, in reference-replica
     * units (0 while the forecast signal is disabled). The cluster's
     * scale-up policy sizes "cheapest that meets the forecast" from
     * the shortfall demand - activeCapacityFactor.
     */
    double lastForecastDemand() const { return lastDemand_; }

    const AutoscalerConfig &config() const { return config_; }
    const predict::LoadForecaster &forecaster() const { return forecast_; }
    std::int64_t scaleUps() const { return scaleUps_; }
    std::int64_t scaleDowns() const { return scaleDowns_; }

    /** Record an "autoscale_eval" instant (demand vs capacity, target)
     * per evaluation; null (the default) disables emission. */
    void setTraceRecorder(obs::TraceRecorder *recorder)
    {
        trace_ = recorder;
    }

  private:
    obs::TraceRecorder *trace_ = nullptr;
    AutoscalerConfig config_;
    predict::LoadForecaster forecast_;
    int sinceUp_ = 1 << 20;   // evaluations since the last scale-up
    int lowStreak_ = 0;       // consecutive below-low evaluations
    double lastDemand_ = 0.0; // forecast demand, reference units
    std::int64_t scaleUps_ = 0;
    std::int64_t scaleDowns_ = 0;
};

} // namespace chameleon::routing

#endif // CHAMELEON_ROUTING_AUTOSCALER_H
