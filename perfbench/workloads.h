/**
 * @file
 * The benchmark's three workloads: a trace-generator configuration and
 * the system spec that serves it. Each one stresses a different set of
 * layers (see README.md); the seed only changes the generated trace.
 */

#ifndef CHAMELEON_PERFBENCH_WORKLOADS_H
#define CHAMELEON_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chameleon/system_spec.h"
#include "model/adapter.h"
#include "workload/trace_gen.h"

namespace perfbench {

struct Workload
{
    std::string name;
    std::unique_ptr<chameleon::model::AdapterPool> pool;
    chameleon::workload::TraceGenConfig gen;
    chameleon::core::SystemSpec spec;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build the named workload for a trace seed; false if unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload *out);

} // namespace perfbench

#endif // CHAMELEON_PERFBENCH_WORKLOADS_H
