/**
 * @file
 * Request trace container with CSV persistence.
 */

#ifndef CHAMELEON_WORKLOAD_TRACE_H
#define CHAMELEON_WORKLOAD_TRACE_H

#include <string>
#include <vector>

#include "workload/request.h"

namespace chameleon::workload {

/** An arrival-ordered sequence of requests. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::vector<Request> requests);

    const std::vector<Request> &requests() const { return requests_; }
    std::size_t size() const { return requests_.size(); }
    bool empty() const { return requests_.empty(); }
    const Request &operator[](std::size_t i) const { return requests_[i]; }

    /** Trace duration (last arrival). */
    sim::SimTime duration() const;

    /** Mean offered load in requests per second. */
    double meanRps() const;

    /** Append a request; must not violate arrival ordering. */
    void append(const Request &r);

    /** Write as CSV: id,arrival_us,input,output,adapter,tenant. */
    void saveCsv(const std::string &path) const;

    /**
     * Parse the CSV format written by saveCsv (a header line, then
     * id,arrival_us,input,output,adapter[,tenant] rows; the tenant
     * column is optional for pre-tenancy traces). Returns false on the
     * first bad row, with `error` naming its 1-based line and the
     * reason: an unreadable file, a field that is not a whole integer,
     * a wrong column count, token counts below 1 or summing above
     * model::kMaxContextTokens, a negative arrival, adapter or tenant,
     * an arrival past sim::kMaxSpanSeconds or earlier than the row
     * before, or a repeated id. Never aborts.
     */
    static bool tryLoadCsv(const std::string &path, Trace *out,
                           std::string *error);

  private:
    std::vector<Request> requests_;
};

} // namespace chameleon::workload

#endif // CHAMELEON_WORKLOAD_TRACE_H
