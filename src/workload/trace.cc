#include "workload/trace.h"

#include <charconv>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "simkit/check.h"

namespace chameleon::workload {

Trace::Trace(std::vector<Request> requests) : requests_(std::move(requests))
{
    for (std::size_t i = 1; i < requests_.size(); ++i) {
        CHM_CHECK(requests_[i].arrival >= requests_[i - 1].arrival,
                  "trace must be arrival-ordered");
    }
}

sim::SimTime
Trace::duration() const
{
    return requests_.empty() ? 0 : requests_.back().arrival;
}

double
Trace::meanRps() const
{
    if (requests_.size() < 2 || duration() == 0)
        return 0.0;
    return static_cast<double>(requests_.size()) / sim::toSeconds(duration());
}

void
Trace::append(const Request &r)
{
    CHM_CHECK(requests_.empty() || r.arrival >= requests_.back().arrival,
              "trace must be arrival-ordered");
    requests_.push_back(r);
}

void
Trace::saveCsv(const std::string &path) const
{
    std::ofstream out(path);
    CHM_CHECK(out.good(), "cannot open " << path << " for writing");
    out << "id,arrival_us,input_tokens,output_tokens,adapter,tenant\n";
    for (const auto &r : requests_) {
        out << r.id << ',' << r.arrival << ',' << r.inputTokens << ','
            << r.outputTokens << ',' << r.adapter << ',' << r.tenant << '\n';
    }
}

namespace {

/** Parse one whole field (surrounding blanks allowed) as an integer. */
template <typename Int>
bool
parseField(std::string_view field, Int *out)
{
    while (!field.empty() && (field.front() == ' ' || field.front() == '\t'))
        field.remove_prefix(1);
    while (!field.empty() && (field.back() == ' ' || field.back() == '\t'))
        field.remove_suffix(1);
    const char *end = field.data() + field.size();
    const auto res = std::from_chars(field.data(), end, *out);
    return res.ec == std::errc() && res.ptr == end && !field.empty();
}

/** Check one data row and parse it into `r`; empty string when fine. */
std::string
parseRow(std::string_view line, Request *r)
{
    static constexpr const char *kNames[] = {"id", "arrival_us",
                                             "input_tokens",
                                             "output_tokens", "adapter",
                                             "tenant"};
    std::string_view fields[6];
    std::size_t count = 0;
    while (true) {
        const std::size_t comma = line.find(',');
        if (count == 6)
            return "more than 6 columns";
        fields[count++] = line.substr(0, comma);
        if (comma == std::string_view::npos)
            break;
        line.remove_prefix(comma + 1);
    }
    if (count < 5) {
        return "expected 5 or 6 columns "
               "(id,arrival_us,input_tokens,output_tokens,adapter"
               "[,tenant]), got " +
               std::to_string(count);
    }
    r->tenant = kAnonymousTenant; // pre-tenancy traces omit the column
    const bool ok[6] = {parseField(fields[0], &r->id),
                  parseField(fields[1], &r->arrival),
                  parseField(fields[2], &r->inputTokens),
                  parseField(fields[3], &r->outputTokens),
                  parseField(fields[4], &r->adapter),
                  count < 6 || parseField(fields[5], &r->tenant)};
    for (std::size_t i = 0; i < count; ++i) {
        if (!ok[i]) {
            return std::string(kNames[i]) + " '" + std::string(fields[i]) +
                   "' is not an integer in range";
        }
    }
    if (r->arrival < 0)
        return "arrival_us must be >= 0";
    if (r->inputTokens < 1)
        return "input_tokens must be >= 1";
    if (r->outputTokens < 1)
        return "output_tokens must be >= 1";
    if (r->inputTokens > model::kMaxContextTokens - r->outputTokens) {
        return "input_tokens + output_tokens must be <= " +
               std::to_string(model::kMaxContextTokens);
    }
    if (r->adapter < 0 && r->adapter != model::kNoAdapter) {
        return "adapter must be >= 0, or " +
               std::to_string(model::kNoAdapter) + " for the base model";
    }
    if (r->tenant < 0)
        return "tenant must be >= 0";
    return {};
}

} // namespace

bool
Trace::tryLoadCsv(const std::string &path, Trace *out, std::string *error)
{
    std::ifstream in(path);
    if (!in.good()) {
        *error = "cannot open " + path + " for reading";
        return false;
    }
    std::string line;
    std::getline(in, line); // header
    std::vector<Request> reqs;
    std::unordered_map<RequestId, std::int64_t> idLines;
    for (std::int64_t lineNo = 2; std::getline(in, line); ++lineNo) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        Request r;
        std::string why = parseRow(line, &r);
        if (why.empty() && !reqs.empty() && r.arrival < reqs.back().arrival) {
            why = "arrival_us " + std::to_string(r.arrival) +
                  " is earlier than the previous row's " +
                  std::to_string(reqs.back().arrival) +
                  " (rows must be in arrival order)";
        }
        if (why.empty()) {
            const auto [it, fresh] = idLines.emplace(r.id, lineNo);
            if (!fresh) {
                why = "id " + std::to_string(r.id) + " repeats line " +
                      std::to_string(it->second);
            }
        }
        if (!why.empty()) {
            *error = path + ":" + std::to_string(lineNo) + ": " + why;
            return false;
        }
        reqs.push_back(r);
    }
    *out = Trace(std::move(reqs));
    return true;
}

} // namespace chameleon::workload
