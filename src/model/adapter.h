/**
 * @file
 * LoRA adapter descriptors and adapter pools.
 *
 * An adapter is identified by a dense integer id and characterised by its
 * rank; its byte footprint follows from the base model geometry. The
 * AdapterPool builds the evaluation configuration of §5.1: Na adapters,
 * ranks drawn from {8, 16, 32, 64, 128} with equal counts per rank.
 */

#ifndef CHAMELEON_MODEL_ADAPTER_H
#define CHAMELEON_MODEL_ADAPTER_H

#include <cstdint>
#include <vector>

#include "model/llm.h"

namespace chameleon::model {

/** Dense adapter identifier; kNoAdapter means a base-model-only request. */
using AdapterId = std::int32_t;
constexpr AdapterId kNoAdapter = -1;

/** Static description of one LoRA adapter. */
struct AdapterSpec
{
    AdapterId id = kNoAdapter;
    int rank = 0;
    /** Host->GPU transfer size (fp16 A/B matrices over all layers). */
    std::int64_t bytes = 0;
};

/** Adapter byte footprint for a rank on a given base model. */
std::int64_t adapterBytes(const ModelSpec &model, int rank);

/** The rank set used throughout the paper's evaluation, ascending. */
const std::vector<int> &paperRanks();

/**
 * A fixed catalogue of adapters for one serving deployment.
 *
 * Ranks are assigned round-robin over the rank set so each rank gets
 * an equal share of adapters (§5.1).
 */
class AdapterPool
{
  public:
    /** Build a pool of count adapters over the given base model. */
    AdapterPool(const ModelSpec &model, int count);

    /** Build a pool with an explicit rank list (one entry per adapter). */
    AdapterPool(const ModelSpec &model, const std::vector<int> &ranks);

    const AdapterSpec &spec(AdapterId id) const;
    int size() const { return static_cast<int>(specs_.size()); }

    /** Largest adapter byte size in the pool (WRS normalisation). */
    std::int64_t maxBytes() const { return maxBytes_; }
    /** Largest rank in the pool. */
    int maxRank() const { return maxRank_; }

    const std::vector<AdapterSpec> &specs() const { return specs_; }

  private:
    std::vector<AdapterSpec> specs_;
    std::int64_t maxBytes_ = 0;
    int maxRank_ = 0;
};

} // namespace chameleon::model

#endif // CHAMELEON_MODEL_ADAPTER_H
