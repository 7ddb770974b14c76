/**
 * @file
 * Simulation time representation.
 *
 * All simulation timestamps and durations are integral microseconds
 * (SimTime). Integral time keeps event ordering exact and makes runs
 * bit-for-bit reproducible; helpers convert to/from floating-point
 * seconds and milliseconds at the API boundary.
 */

#ifndef CHAMELEON_SIMKIT_TIME_H
#define CHAMELEON_SIMKIT_TIME_H

#include <cstdint>

namespace chameleon::sim {

/** Simulation time in microseconds since simulation start. */
using SimTime = std::int64_t;

/** Sentinel for "no time" / unset timestamps. */
constexpr SimTime kTimeNever = -1;

/** One microsecond. */
constexpr SimTime kUsec = 1;
/** One millisecond in SimTime units. */
constexpr SimTime kMsec = 1000;
/** One second in SimTime units. */
constexpr SimTime kSec = 1000 * 1000;

/**
 * Longest span an input may declare, in seconds (~31.7 years): a trace
 * duration or arrival, a period, a load, or one request served alone
 * from its first prefill token to its last decode step. As SimTime it
 * is 1e15, a ten-thousandth of the int64 range, and no run sums more
 * than a few such spans into one time:
 *  - a run dispatches no event past the trace's end plus its drain
 *    window (chameleon/system.cc), so the clock stays within about one
 *    span, and an event scheduled from there lies one iteration, load
 *    or period further;
 *  - a request's isolated latency (serving/slo.cc) sums its prefill and
 *    every decode step, which SystemSpec::validate() bounds together by
 *    one span at the longest context (model::kMaxContextTokens, 2^20
 *    tokens). A one-request iteration so lasts at most 2^-20 spans, and
 *    one over every request a generated trace may hold
 *    (workload::kMaxTraceRequests, 2^22) at most a few spans.
 */
inline constexpr double kMaxSpanSeconds = 1e9;

/** Convert floating-point seconds to SimTime (rounds to nearest usec). */
constexpr SimTime
fromSeconds(double s)
{
    return static_cast<SimTime>(s * static_cast<double>(kSec) + 0.5);
}

/** Convert floating-point milliseconds to SimTime. */
constexpr SimTime
fromMillis(double ms)
{
    return static_cast<SimTime>(ms * static_cast<double>(kMsec) + 0.5);
}

/** Convert SimTime to floating-point seconds. */
constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSec);
}

/** Convert SimTime to floating-point milliseconds. */
constexpr double
toMillis(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kMsec);
}

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_TIME_H
