/**
 * @file
 * Benchmark-side spans: wall-clock intervals recorded around calls into
 * the simulator's layers, kept in memory and written out at the end as
 * Chrome trace-event JSON (opens in Perfetto / chrome://tracing) plus a
 * per-name table with self time (duration minus covered child time).
 */

#ifndef CHAMELEON_PERFBENCH_SPAN_LOG_H
#define CHAMELEON_PERFBENCH_SPAN_LOG_H

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanLog
{
  public:
    static constexpr int kNoParent = -1;

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; its id is valid for end() and as a parent. */
    int begin(std::string name, int parent, std::string run);
    /** Close a span; returns its duration in seconds. */
    double end(int id);

    /** Run `fn` inside a span; returns the span's seconds. */
    template <typename Fn>
    double
    time(std::string name, int parent, const std::string &run, Fn &&fn)
    {
        const int id = begin(std::move(name), parent, run);
        fn();
        return end(id);
    }

    /** Write {"traceEvents": [...]} with one complete event per span. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Print one row per span name over the spans of runs whose id
     * starts with `runPrefix`: count, total and self milliseconds, and
     * self time as a share of the root spans' total.
     */
    void printLayerTable(std::FILE *out, const std::string &runPrefix) const;

  private:
    struct Span
    {
        std::string name;
        std::string run;
        int parent = kNoParent;
        Clock::time_point start;
        Clock::time_point stop;
    };

    double seconds(const Span &span) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_SPAN_LOG_H
