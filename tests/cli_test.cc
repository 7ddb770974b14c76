/**
 * @file
 * chameleon_sim's input boundary: bad flag values and bad spec JSON
 * exit with code 2 and name the flag or key, instead of reaching an
 * internal CHM_CHECK abort (exit 134) or running (exit 0).
 *
 * Drives the built binary (CHAMELEON_SIM_BIN, set by CMake).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

struct Outcome
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr, interleaved
};

/** Run chameleon_sim with `args`, feeding `input` on stdin. */
Outcome
runSim(const std::string &args, const std::string &input = "")
{
    std::string command =
        std::string(CHAMELEON_SIM_BIN) + " " + args + " 2>&1";
    if (!input.empty())
        command = "printf '%s' '" + input + "' | " + command;
    Outcome outcome;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return outcome;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr)
        outcome.output += buffer;
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        outcome.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        outcome.exitCode = 128 + WTERMSIG(status);
    return outcome;
}

void
expectUsageError(const std::string &args, const std::string &names,
                 const std::string &input = "")
{
    const Outcome outcome = runSim(args, input);
    EXPECT_EQ(outcome.exitCode, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(names), std::string::npos)
        << args << "\n" << outcome.output;
    EXPECT_EQ(outcome.output.find("panic:"), std::string::npos)
        << args << "\n" << outcome.output;
}

/** Write a trace CSV (header + `rows`) to a temp file; its path. */
std::string
traceFile(const std::string &name, const std::string &rows)
{
    const std::string path = testing::TempDir() + "cli_trace_" + name;
    std::ofstream(path)
        << "id,arrival_us,input_tokens,output_tokens,adapter,tenant\n"
        << rows;
    return path;
}

} // namespace

TEST(CliBoundary, ValidFlagsStillRun)
{
    const Outcome outcome = runSim("--replicas 2 --tp 2 --dump-config");
    EXPECT_EQ(outcome.exitCode, 0) << outcome.output;
}

TEST(CliBoundary, RejectsZeroTenants)
{
    expectUsageError("--tenants 0 --duration 5", "--tenants");
}

TEST(CliBoundary, RejectsZeroReplicas)
{
    expectUsageError("--replicas 0 --duration 5", "--replicas");
}

TEST(CliBoundary, RejectsZeroRps)
{
    expectUsageError("--rps 0 --duration 5", "--rps");
}

TEST(CliBoundary, RejectsNegativeRps)
{
    expectUsageError("--rps -1 --duration 5", "--rps");
}

TEST(CliBoundary, RejectsZeroDuration)
{
    expectUsageError("--duration 0", "--duration");
}

TEST(CliBoundary, RejectsTraceLoadsBeyondTheRequestCap)
{
    // Each would grow the trace until the allocator gives up.
    expectUsageError("--rps inf", "--rps");
    expectUsageError("--rps nan", "--rps");
    expectUsageError("--duration inf", "--duration");
    expectUsageError("--rps 1e308", "--rps x --duration");
    expectUsageError("--duration 1e12", "--duration");
    expectUsageError("--rps 1e6 --duration 1e6", "--rps x --duration");
    expectUsageError("--tenants 2 --tenant-storm inf", "--tenant-storm");
}

TEST(CliBoundary, RejectsNonFiniteSpecFlags)
{
    // NaN passes every "x < a || x > b" check; the domains reject it.
    expectUsageError("--predictor-acc nan", "predictor.accuracy");
    expectUsageError("--autoscale --autoscale-boot-ms nan",
                     "cluster.autoscaler.boot_ms");
    expectUsageError("--autoscale --autoscale-alpha nan",
                     "cluster.autoscaler.measured_rate_alpha");
}

TEST(CliBoundary, RejectsSloMultipliersBeyondTheClock)
{
    // 1e18 x the mean isolated latency overflowed the int64 SLO.
    expectUsageError("--rps 2 --duration 5 --slo-multiplier 1e18",
                     "--slo-multiplier");
    expectUsageError("--rps 2 --duration 5 --slo-multiplier 9000.001",
                     "--slo-multiplier");
    expectUsageError("--slo-multiplier nan", "--slo-multiplier");
}

TEST(CliBoundary, RejectsModelsThatDoNotFitTheirGpus)
{
    expectUsageError("--model llama-70b --duration 5", "engine: llama-70b");
    EXPECT_EQ(runSim("--model llama-70b --tp 4 --dump-config").exitCode, 0);
}

TEST(CliBoundary, RejectsNonPowerOfTwoTpFlag)
{
    expectUsageError("--tp 3 --duration 5", "--tp");
}

TEST(CliBoundary, RejectsNonPowerOfTwoTpInConfig)
{
    expectUsageError("--config - --duration 5", "engine.tp_degree",
                     R"({"engine": {"tp_degree": 3}})");
    expectUsageError(
        "--config - --duration 5", "cluster.replicas[1].tp_degree",
        R"({"cluster": {"replicas": ["a40", {"tp_degree": 6}]}})");
}

TEST(CliBoundary, RejectsNegativeAdapters)
{
    expectUsageError("--adapters -5 --duration 5", "--adapters");
}

TEST(CliBoundary, RejectsCountsBeyondInt)
{
    // Would wrap negative in the int-typed spec fields.
    expectUsageError("--adapters 3000000000 --duration 5", "--adapters");
    expectUsageError("--tenants 3000000000 --duration 5", "--tenants");
}

TEST(CliBoundary, RejectsAutoscaleBoundsOutsideInt)
{
    // Negative bounds would wrap to ~2^64 replicas in the size_t spec
    // fields; the usage check stops them before any engine is built.
    expectUsageError("--autoscale --min-replicas -3 --max-replicas -1 "
                     "--dump-config",
                     "--min-replicas");
    expectUsageError("--autoscale --max-replicas -1 --dump-config",
                     "--max-replicas");
    expectUsageError("--autoscale --max-replicas 3000000000 --dump-config",
                     "--max-replicas");
}

TEST(CliBoundary, ClusterFlagsAtTheirDefaultsStillNeedTheirSwitch)
{
    // Given explicitly, a flag is a request, even at its default value.
    expectUsageError("--max-replicas 8 --dump-config",
                     "--max-replicas requires --autoscale");
    expectUsageError("--autoscale-up-policy default --dump-config",
                     "--autoscale-up-policy requires --autoscale");
    expectUsageError("--router jsq --dump-config",
                     "--router requires --replicas > 1 or --autoscale");
    expectUsageError("--replicas 2 --topology pcie --dump-config",
                     "--topology requires --migration");
    expectUsageError("--replicas 2 --fabric-top-k 4 --dump-config",
                     "--fabric-top-k requires --migration");
    // Left out, the defaults still compose a valid single-engine run.
    EXPECT_EQ(runSim("--dump-config").exitCode, 0);
}

TEST(CliBoundary, RejectsMissingTraceFile)
{
    expectUsageError("--trace /nonexistent/trace.csv", "--trace");
}

TEST(CliBoundary, WellFormedTraceFileRuns)
{
    // Legacy 5-column rows, a blank line and CRLF endings all load.
    const std::string path = traceFile(
        "good.csv", "0,0,64,8,-1\r\n1,1000,32,4,3,0\n\n2,2000,16,2,1\n");
    const Outcome outcome =
        runSim("--trace " + path + " --adapters 10 --seed 1");
    EXPECT_EQ(outcome.exitCode, 0) << outcome.output;
    EXPECT_NE(outcome.output.find("3 requests"), std::string::npos)
        << outcome.output;
}

TEST(CliBoundary, RejectsMalformedTraceRow)
{
    const std::string path =
        traceFile("short.csv", "0,0,64,8,-1\n0,abc,5\n");
    expectUsageError("--trace " + path, "short.csv:3: expected 5 or 6");
    const std::string word = traceFile("word.csv", "0,abc,64,8,-1\n");
    expectUsageError("--trace " + word,
                     "word.csv:2: arrival_us 'abc' is not an integer");
}

TEST(CliBoundary, RejectsNegativeTraceTokenCounts)
{
    expectUsageError("--trace " +
                         traceFile("neg_in.csv", "0,0,-5,8,-1\n"),
                     "neg_in.csv:2: input_tokens must be >= 1");
    expectUsageError("--trace " +
                         traceFile("neg_out.csv", "0,0,5,8,-1\n1,9,5,-2,-1\n"),
                     "neg_out.csv:3: output_tokens must be >= 1");
}

TEST(CliBoundary, RejectsTraceContextsBeyondTheMaximum)
{
    expectUsageError("--trace " +
                         traceFile("long.csv", "0,0,1000000000,2,-1\n"),
                     "long.csv:2: input_tokens + output_tokens must be <= "
                     "1048576");
    // A sum that would overflow int64 is rejected the same way.
    expectUsageError(
        "--trace " + traceFile("overflow.csv",
                               "0,0,16,4,-1\n"
                               "1,9,9223372036854775807,9223372036854775807,"
                               "-1\n"),
        "overflow.csv:3: input_tokens + output_tokens must be <= 1048576");
}

TEST(CliBoundary, RejectsTraceArrivalsBeyondTheLongestSpan)
{
    // Near the int64 limit the clock would overflow past the arrival.
    expectUsageError(
        "--trace " + traceFile("far.csv", "0,9223372036854775000,16,4,-1\n"),
        "far.csv:2: arrival_us must be <= 1000000000000000");
}

TEST(CliBoundary, RejectsNonMonotoneTraceArrivals)
{
    expectUsageError(
        "--trace " +
            traceFile("order.csv", "0,5000,16,4,-1\n1,4000,16,4,-1\n"),
        "order.csv:3: arrival_us 4000 is earlier than the previous row's "
        "5000");
}

TEST(CliBoundary, RejectsTraceAdaptersOutsideThePool)
{
    expectUsageError("--adapters 4 --trace " +
                         traceFile("pool.csv", "0,0,16,4,4\n"),
                     "--trace request 0 names adapter 4, but --adapters "
                     "is 4");
}
