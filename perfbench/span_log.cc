#include "span_log.h"

#include <map>

namespace perfbench {

int
SpanLog::begin(std::string name, int parent, std::string run)
{
    Span span;
    span.name = std::move(name);
    span.run = std::move(run);
    span.parent = parent;
    span.start = Clock::now();
    span.stop = span.start;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanLog::end(int id)
{
    Span &span = spans_.at(static_cast<std::size_t>(id));
    span.stop = Clock::now();
    return seconds(span);
}

double
SpanLog::seconds(const Span &span) const
{
    return std::chrono::duration<double>(span.stop - span.start).count();
}

namespace {

/** Span names and run ids are benchmark literals; escape anyway. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    auto micros = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\": %s, \"cat\": \"perfbench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": "
                     "%zu, \"parent\": %d, \"run\": %s}}",
                     i == 0 ? "" : ",", jsonString(s.name).c_str(),
                     micros(s.start), micros(s.stop) - micros(s.start), i,
                     s.parent, jsonString(s.run).c_str());
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

void
SpanLog::printLayerTable(std::FILE *out, const std::string &runPrefix) const
{
    struct Row
    {
        int count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    // Children run sequentially inside their parent, so the covered
    // part of a parent is the sum of its children's durations.
    std::vector<double> childSeconds(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            childSeconds[static_cast<std::size_t>(s.parent)] += seconds(s);
    }
    std::map<std::string, Row> rows;
    double rootTotal = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.run.compare(0, runPrefix.size(), runPrefix) != 0)
            continue;
        Row &row = rows[s.name];
        ++row.count;
        row.total += seconds(s);
        row.self += seconds(s) - childSeconds[i];
        if (s.parent == kNoParent)
            rootTotal += seconds(s);
    }
    std::fprintf(out, "%-36s %6s %12s %12s %8s\n", "span", "count",
                 "total_ms", "self_ms", "self_%");
    for (const auto &[name, row] : rows) {
        std::fprintf(out, "%-36s %6d %12.3f %12.3f %7.2f%%\n", name.c_str(),
                     row.count, 1e3 * row.total, 1e3 * row.self,
                     rootTotal > 0.0 ? 100.0 * row.self / rootTotal : 0.0);
    }
}

} // namespace perfbench
