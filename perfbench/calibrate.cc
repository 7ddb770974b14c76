#include "calibrate.h"

#include <algorithm>
#include <numeric>
#include <random>

#include "span_log.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableEntries = std::size_t{8} << 20; // 32 MiB
/** Dependent loads: mostly misses past the private caches. */
constexpr int kChaseSteps = 1000000;
/** Dependent floating-point multiply-adds: core clock and SMT pressure. */
constexpr int kComputeSteps = 20000000;

volatile std::uint64_t g_sink = 0;

} // namespace

HostCalibration::HostCalibration() : next_(kTableEntries)
{
    std::vector<std::uint32_t> order(kTableEntries);
    std::iota(order.begin(), order.end(), 0u);
    std::mt19937_64 rng(1);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < kTableEntries; ++i)
        next_[order[i]] = order[(i + 1) % kTableEntries];
}

double
HostCalibration::measure()
{
    const auto start = Clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < kChaseSteps; ++i)
        at = next_[at];
    double x = 1.0;
    for (int i = 0; i < kComputeSteps; ++i)
        x = x * 1.0000001 + 1e-9;
    g_sink = at + static_cast<std::uint64_t>(x);
    return secondsSince(start);
}

} // namespace perfbench
