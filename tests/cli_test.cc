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

TEST(CliBoundary, RejectsNonPowerOfTwoTpFlag)
{
    expectUsageError("--tp 3 --duration 5", "--tp");
}

TEST(CliBoundary, RejectsNonPowerOfTwoTpInConfig)
{
    expectUsageError("--config - --duration 5", "engine.tpDegree",
                     R"({"engine": {"tp_degree": 3}})");
    expectUsageError(
        "--config - --duration 5", "cluster.replicaEngines[1].tpDegree",
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

TEST(CliBoundary, RejectsMissingTraceFile)
{
    expectUsageError("--trace /nonexistent/trace.csv", "--trace");
}
