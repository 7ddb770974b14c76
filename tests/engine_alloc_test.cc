/**
 * @file
 * Heap allocations per engine iteration.
 *
 * This binary replaces the global operator new with a counting one, so
 * it runs alone (one test binary per gtest_discover_tests target). A
 * steady decode stretch — a running batch with no arrivals, admissions
 * or completions — must not allocate per iteration: every list an
 * iteration builds is a reused engine buffer, and the schedulers fill
 * caller-owned buffers. Amortised growth (the TBT sample vector,
 * once-per-second memory samples) is what remains, far below one
 * allocation per iteration.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "test_util.h"

namespace {

bool g_counting = false;
long g_allocations = 0;

void *
countedAlloc(std::size_t size)
{
    if (g_counting)
        ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace chameleon;

namespace {

/** Allocations per iteration while the engine runs from `from` to `to`. */
double
allocationsPerIteration(testutil::BaselineEngine &f, sim::SimTime from,
                        sim::SimTime to)
{
    f.simulator.runUntil(from);
    const std::int64_t iterationsBefore = f.engine->stats().iterations;
    const std::int64_t finishedBefore = f.engine->stats().finished;
    g_allocations = 0;
    g_counting = true;
    f.simulator.runUntil(to);
    g_counting = false;
    const std::int64_t iterations =
        f.engine->stats().iterations - iterationsBefore;
    EXPECT_GT(iterations, 1000);
    EXPECT_EQ(f.engine->stats().finished, finishedBefore)
        << "the window must hold no completions";
    return static_cast<double>(g_allocations) /
           static_cast<double>(std::max<std::int64_t>(1, iterations));
}

} // namespace

TEST(EngineAllocations, CountingAllocatorSeesAllocations)
{
    g_allocations = 0;
    g_counting = true;
    auto *p = new int(7);
    g_counting = false;
    delete p;
    EXPECT_EQ(g_allocations, 1);
}

TEST(EngineAllocations, DecodeOnlyIterationsDoNotAllocate)
{
    testutil::BaselineEngine f;
    // Each bucket of the event calendar's ~2.1 s ring allocates on its
    // first event, once per simulator; touch all of them up front so
    // the window below counts only what iterations allocate.
    for (sim::SimTime t = 0; t < 3 * sim::kSec; t += 256)
        f.simulator.scheduleAt(t, [] {});
    f.simulator.runUntil(3 * sim::kSec);
    // 24 long requests, half on adapters, all admitted within the first
    // iterations; none finishes before the window closes.
    const sim::SimTime start = f.simulator.now();
    for (int i = 0; i < 24; ++i) {
        const model::AdapterId adapter =
            i % 2 == 0 ? model::kNoAdapter : (i / 2) % 5;
        f.engine->submit(workload::Request{i, start, 32, 4000, adapter});
    }
    const double perIteration = allocationsPerIteration(
        f, start + 5 * sim::kSec, start + 50 * sim::kSec);
    EXPECT_EQ(f.engine->runningCount(), 24u);
    EXPECT_LT(perIteration, 0.05);
    RecordProperty("allocations_per_iteration",
                   std::to_string(perIteration));
}
