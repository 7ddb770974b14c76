/**
 * @file
 * Analytical GPU execution cost model.
 *
 * Converts batch composition into virtual execution times. Calibrated
 * against the paper's own single-request measurements (Fig. 2: TTFT of
 * 74/78/88/107/144 ms for adapter ranks 8..128 on Llama-7B/A40 with a
 * 96-token "medium" input); see DESIGN.md §3 for the fit.
 *
 * Structure:
 *  - prefill: compute-bound, FLOPs / effective-FLOP-rate per token.
 *  - LoRA prefill overhead (MBGMM kernel): fixed gather/launch cost plus
 *    an inefficiency multiplier over the theoretical adapter FLOPs. The
 *    paper (and dLoRA Fig. 5) observe the decoupled adapter matmuls cost
 *    far more than their FLOP share; the multiplier captures that.
 *  - decode: memory-bound, weight-shard read + per-request KV reads, plus
 *    the MBGMV adapter overhead.
 *  - adapter transfer: PCIe setup + bytes/bandwidth, plus a per-extra-rank
 *    synchronisation cost under tensor parallelism (§3.2, Fig. 5).
 */

#ifndef CHAMELEON_MODEL_COST_MODEL_H
#define CHAMELEON_MODEL_COST_MODEL_H

#include <cstdint>
#include <vector>

#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/fields.h"
#include "simkit/time.h"

namespace chameleon::model {

/**
 * The "medium input" size of the paper's Fig. 2 single-request study,
 * back-solved from the published TTFT numbers under the calibrated
 * cost parameters below.
 */
constexpr std::int64_t kMediumInputTokens = 142;

/** Tunable calibration constants (defaults fit the A40/Llama-7B data). */
struct CostParams
{
    /** Fraction of peak FLOPs achieved by dense prefill GEMMs. */
    double computeUtil = 0.80;
    /** Fraction of peak HBM bandwidth achieved by decode reads. */
    double memUtil = 0.80;
    /** Fixed per-prefill overhead (scheduling, kernel launches), ms. */
    double prefillFixedMs = 0.5;
    /** MBGMM fixed cost per prefill invocation touching adapters, ms. */
    double mbgmmFixedMs = 4.3;
    /** Multiplier on theoretical LoRA FLOP time (kernel inefficiency). */
    double loraIneff = 40.0;
    /** Fixed per-decode-iteration overhead, ms. */
    double decodeFixedMs = 1.0;
    /** Per-running-request decode overhead (attention launch), us. */
    double decodeReqUs = 50.0;
    /** MBGMV fixed cost per decode iteration touching adapters, ms. */
    double mbgmvFixedMs = 1.0;
    /** Per-request per-iteration adapter cost, us per unit rank. */
    double decodeRankUs = 3.0;
    /** Adapter-load synchronisation per extra tensor-parallel rank, ms. */
    double tpSyncMs = 10.0;
    /** Parallel-efficiency loss per doubling of TP degree. */
    double tpEffLossPerLog2 = 0.15;

    /** Every member once, with its spec-JSON key (simkit/fields.h). */
    template <typename V>
    static void fields(V &v)
    {
        // Utilisations divide; fixed costs are spans in ms or us.
        constexpr double kMs = sim::kMaxSpanSeconds * 1e3;
        constexpr double kUs = sim::kMaxSpanSeconds * 1e6;
        v.field("compute_util", &CostParams::computeUtil, sim::positive());
        v.field("mem_util", &CostParams::memUtil, sim::positive());
        v.field("prefill_fixed_ms", &CostParams::prefillFixedMs,
                sim::nonNegative(kMs));
        v.field("mbgmm_fixed_ms", &CostParams::mbgmmFixedMs,
                sim::nonNegative(kMs));
        // Scales LoRA FLOP times of well under a second into spans.
        v.field("lora_ineff", &CostParams::loraIneff, sim::nonNegative(1e9));
        v.field("decode_fixed_ms", &CostParams::decodeFixedMs,
                sim::nonNegative(kMs));
        v.field("decode_req_us", &CostParams::decodeReqUs,
                sim::nonNegative(kUs));
        v.field("mbgmv_fixed_ms", &CostParams::mbgmvFixedMs,
                sim::nonNegative(kMs));
        v.field("decode_rank_us", &CostParams::decodeRankUs,
                sim::nonNegative(kUs));
        v.field("tp_sync_ms", &CostParams::tpSyncMs, sim::nonNegative(kMs));
        // The efficiency it lowers is floored at 0.1 (cost_model.cc).
        v.field("tp_eff_loss_per_log2", &CostParams::tpEffLossPerLog2,
                sim::nonNegative());
    }
};

/** Field-wise equality (spec round-trip tests). */
inline bool operator==(const CostParams &a, const CostParams &b)
{
    return sim::fieldsEqual(a, b);
}
inline bool operator!=(const CostParams &a, const CostParams &b)
{
    return !(a == b);
}

/** One running request's contribution to a decode iteration. */
struct DecodeSlot
{
    /** KV-cache tokens read this iteration (prompt + generated so far). */
    std::int64_t kvTokens = 0;
    /** LoRA rank, or 0 for base-only requests. */
    int rank = 0;
};

/**
 * Cost model for one execution engine (a GPU or TP group of GPUs).
 */
class CostModel
{
  public:
    CostModel(ModelSpec model, GpuSpec gpu, int tpDegree = 1,
              CostParams params = CostParams{});

    const ModelSpec &model() const { return model_; }
    const GpuSpec &gpu() const { return gpu_; }
    int tpDegree() const { return tp_; }
    const CostParams &params() const { return params_; }

    /** Effective FLOP rate across the TP group (peak * util * eff). */
    double effectiveFlops() const;

    /** Effective aggregate HBM bandwidth across the TP group. */
    double effectiveMemBandwidth() const;

    /** Base-model prefill compute time for a token count. */
    sim::SimTime prefillTime(std::int64_t tokens) const;

    /** MBGMM adapter overhead for prefilling tokens with a given rank. */
    sim::SimTime adapterPrefillTime(int rank, std::int64_t tokens) const;

    /**
     * Combined prefill step time for a set of (tokens, rank) requests
     * prefilled together in one iteration. The MBGMM fixed cost is paid
     * once per invocation, the per-token terms sum.
     */
    sim::SimTime prefillStepTime(
        const std::vector<std::pair<std::int64_t, int>> &reqs) const;

    /** One decode iteration over the given batch composition. */
    sim::SimTime decodeIterTime(const std::vector<DecodeSlot> &batch) const;

    /** The same over `count` slots at `slots` (no container needed). */
    sim::SimTime decodeIterTime(const DecodeSlot *slots,
                                std::size_t count) const;

    /**
     * Host->GPU transfer time for an adapter of the given byte size,
     * including per-transfer setup and TP synchronisation. This is the
     * service time used by the PCIe link model; queueing is on top.
     */
    sim::SimTime adapterLoadTime(std::int64_t bytes) const;

    /** TTFT of a lone request on an idle engine (Fig. 2/3 conditions). */
    sim::SimTime isolatedTtft(std::int64_t inputTokens, int rank,
                              std::int64_t adapterBytes,
                              bool includeLoad) const;

    /**
     * End-to-end latency of a lone request on an idle engine; the
     * slowdown-denominator of §3.3. The reference definition: one
     * single-slot decode step per output token after the first, so
     * O(outputTokens) per call. IsolatedLatency gives the same value
     * in O(1).
     */
    sim::SimTime isolatedE2e(std::int64_t inputTokens,
                             std::int64_t outputTokens, int rank,
                             std::int64_t adapterBytes,
                             bool includeLoad) const;

  private:
    double tpEfficiency() const;

    ModelSpec model_;
    GpuSpec gpu_;
    int tp_;
    CostParams params_;
};

/**
 * Exact isolated latencies in O(1) per request, for post-run
 * accounting over whole traces (the SLO and the slowdowns).
 *
 * A lone request's decode step depends only on its KV length and its
 * rank, and each step rounds to whole microseconds before it is added.
 * So per rank, the prefix sums P[k] = step(0) + ... + step(k-1) (from
 * CostModel::decodeIterTime itself) turn the reference loop of
 * CostModel::isolatedE2e into
 *     isolatedTtft + P[in + out] - P[in + 1],
 * the same integer sum, bit for bit. Tables are built per rank on
 * first use and grow to the longest context seen, up to
 * kMaxContextTokens; a longer context runs the reference loop, so no
 * request costs more time or memory than it does there.
 *
 * A small mutable value: give each thread its own (the CostModel it
 * reads is shared read-only). It keeps a pointer to `cost`, which must
 * outlive it.
 */
class IsolatedLatency
{
  public:
    explicit IsolatedLatency(const CostModel &cost) : cost_(&cost) {}

    /** Equal to cost.isolatedE2e(...) with the same arguments. */
    sim::SimTime e2e(std::int64_t inputTokens, std::int64_t outputTokens,
                     int rank, std::int64_t adapterBytes, bool includeLoad);

  private:
    /** The rank's prefix sums, grown to hold index `last`. */
    const std::vector<sim::SimTime> &prefix(int rank, std::int64_t last);

    struct RankTable
    {
        int rank;
        std::vector<sim::SimTime> prefix; // prefix[0] == 0
    };

    const CostModel *cost_;
    /** One table per rank seen; a handful, so a linear scan. */
    std::vector<RankTable> tables_;
};

} // namespace chameleon::model

#endif // CHAMELEON_MODEL_COST_MODEL_H
