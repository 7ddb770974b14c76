/**
 * @file
 * A seeded mutation driver over chameleon_sim's and chameleon_sweep's
 * input boundaries. Every numeric leaf of several spec dumps (a plain
 * preset, a fleet, an autoscaled spec, a fabric spec with tenants),
 * every numeric flag and every numeric leaf a sweep file owns takes
 * values at, beyond and far outside its declared domain; each child
 * run must exit 0 (it ran) or 2 (a usage error naming the key), never
 * abort, trap, run out of memory or spin.
 *
 * Children run the built binaries (CHAMELEON_SIM_BIN and
 * CHAMELEON_SWEEP_BIN, set by CMake) a few at a time, each under a
 * CPU-time cap and an address-space limit set
 * by setrlimit in the child only, and a wall-clock alarm. Under
 * AddressSanitizer, which needs a vast address space for its shadow
 * memory, the sanitizer's own resident-set limit replaces the
 * address-space one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "chameleon/spec_json.h"
#include "simkit/fields.h"
#include "simkit/json.h"
#include "simkit/rng.h"
#include "sweep/sweep_spec.h"

using namespace chameleon;

namespace {

/** One child run: `binary` with `args` (and `config` as a file). */
struct Case
{
    std::string label;
    std::vector<std::string> args;
    std::string config; ///< JSON for --config; "" = none
    const char *binary = CHAMELEON_SIM_BIN;
};

struct Result
{
    int exitCode = -1; ///< 128 + signal when killed
    std::string stderrTail;
};

constexpr rlim_t kCpuSeconds = 10;
constexpr unsigned kWallSeconds = 20;
#if defined(__SANITIZE_ADDRESS__)
#define CHM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHM_ASAN 1
#endif
#endif

#ifdef CHM_ASAN
constexpr const char *kAsanRssLimit = "hard_rss_limit_mb=1024";
#else
constexpr rlim_t kAddressSpace = rlim_t{1} << 30;
#endif
constexpr int kParallel = 3;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

pid_t
spawn(const Case &c, const std::string &configPath,
      const std::string &errPath)
{
    std::vector<std::string> args = {c.binary};
    if (!c.config.empty()) {
        std::ofstream(configPath) << c.config;
        args.insert(args.end(), {"--config", configPath});
    }
    args.insert(args.end(), c.args.begin(), c.args.end());
#ifdef CHM_ASAN
    // AddressSanitizer reserves terabytes of shadow address space at
    // startup, which an address-space limit forbids; the child caps its
    // resident set through the sanitizer instead.
    const char *options = std::getenv("ASAN_OPTIONS");
    const std::string asan = options != nullptr && *options != '\0'
                                 ? std::string(options) + ":" + kAsanRssLimit
                                 : std::string(kAsanRssLimit);
#endif
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: limits first, so they hold from the first instruction.
    const rlimit cpu{kCpuSeconds, kCpuSeconds};
    setrlimit(RLIMIT_CPU, &cpu);
#ifdef CHM_ASAN
    setenv("ASAN_OPTIONS", asan.c_str(), 1);
#else
    const rlimit as{kAddressSpace, kAddressSpace};
    setrlimit(RLIMIT_AS, &as);
#endif
    alarm(kWallSeconds); // survives exec: a wall-clock cap
    const int null = open("/dev/null", O_RDWR);
    const int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    dup2(null, STDIN_FILENO);
    dup2(null, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
}

/** Run every case, kParallel at a time. */
std::vector<Result>
runAll(const std::vector<Case> &cases)
{
    std::vector<Result> results(cases.size());
    std::map<pid_t, std::size_t> running;
    const std::string dir = testing::TempDir();
    auto path = [&dir](std::size_t i, const char *ext) {
        return dir + "mutation_" + std::to_string(getpid()) + "_" +
               std::to_string(i) + ext;
    };
    auto reap = [&]() {
        int status = 0;
        const pid_t pid = wait(&status);
        if (pid <= 0)
            return;
        const std::size_t i = running.at(pid);
        running.erase(pid);
        Result &r = results[i];
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
        const std::string err = readFile(path(i, ".err"));
        r.stderrTail = err.substr(err.size() > 300 ? err.size() - 300 : 0);
        std::remove(path(i, ".err").c_str());
        std::remove(path(i, ".json").c_str());
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        while (running.size() >= kParallel)
            reap();
        running[spawn(cases[i], path(i, ".json"), path(i, ".err"))] = i;
    }
    while (!running.empty())
        reap();
    return results;
}

void
expectCleanExits(const std::vector<Case> &cases)
{
    const auto results = runAll(cases);
    int failures = 0;
    int ran = 0;
    int rejected = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const int code = results[i].exitCode;
        ran += code == 0;
        rejected += code == 2;
        if (code == 0 || code == 2)
            continue;
        if (++failures <= 20) {
            ADD_FAILURE() << cases[i].label << ": exit " << code << "\n"
                          << results[i].stderrTail;
        }
    }
    EXPECT_EQ(failures, 0) << "of " << cases.size() << " runs";
    // Both outcomes occur, or the mutations missed their target.
    EXPECT_GT(ran, 0);
    EXPECT_GT(rejected, 0);
}

/** The spec chameleon_sim resolves from `args`, as a JSON document. */
sim::JsonValue
dumpOf(const std::vector<std::string> &args, const std::string &config = "")
{
    std::string command = CHAMELEON_SIM_BIN;
    std::string configPath;
    if (!config.empty()) {
        configPath = testing::TempDir() + "mutation_base.json";
        std::ofstream(configPath) << config;
        command += " --config " + configPath;
    }
    for (const auto &arg : args)
        command += " " + arg;
    command += " --dump-config";
    std::string text;
    FILE *pipe = popen(command.c_str(), "r");
    char buffer[4096];
    while (pipe != nullptr && std::fgets(buffer, sizeof buffer, pipe))
        text += buffer;
    if (pipe != nullptr)
        pclose(pipe);
    if (!configPath.empty())
        std::remove(configPath.c_str());
    std::string error;
    auto doc = sim::parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << command << ": " << error;
    return doc.value_or(sim::JsonValue::makeObject());
}

/** A numeric leaf of a dump: its dotted path and JSON steps. */
struct Leaf
{
    std::string path;
    std::vector<std::string> steps; ///< object keys, or "[i]" indices
};

void
collectLeaves(const sim::JsonValue &node, Leaf at, std::vector<Leaf> *out)
{
    if (node.isNumber()) {
        out->push_back(at);
    } else if (node.isObject()) {
        for (const auto &[key, child] : node.members()) {
            Leaf next = at;
            next.path += (next.path.empty() ? "" : ".") + key;
            next.steps.push_back(key);
            collectLeaves(child, next, out);
        }
    } else if (node.isArray()) {
        for (std::size_t i = 0; i < node.items().size(); ++i) {
            Leaf next = at;
            next.path += "[" + std::to_string(i) + "]";
            next.steps.push_back("[" + std::to_string(i) + "]");
            collectLeaves(node.items()[i], next, out);
        }
    }
}

/** `node` with the value at `steps` replaced. */
sim::JsonValue
replaced(sim::JsonValue node, const std::vector<std::string> &steps,
         std::size_t at, const sim::JsonValue &value)
{
    if (at == steps.size())
        return value;
    const std::string &step = steps[at];
    if (step.front() == '[') {
        const std::size_t i = std::stoul(step.substr(1));
        node.items()[i] = replaced(node.items()[i], steps, at + 1, value);
        return node;
    }
    // set() appends, so rebuild the object in its key order.
    sim::JsonValue object = sim::JsonValue::makeObject();
    for (const auto &[key, child] : node.members())
        object.set(key, key == step ? replaced(child, steps, at + 1, value)
                                    : child);
    return object;
}

/** What the field lists declare for each leaf of a spec. */
struct Declared
{
    sim::Domain domain;
    bool integral;
};

std::map<std::string, Declared>
declaredDomains(const sim::JsonValue &dump)
{
    std::string error;
    const auto spec = core::specFromJsonValue(dump, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    std::map<std::string, Declared> out;
    if (spec.has_value()) {
        sim::walkDomains(*spec, [&out](const std::string &path, auto value,
                                       const sim::Domain &domain) {
            out[path] = {domain,
                         std::is_integral_v<decltype(value)>};
        });
    }
    return out;
}

/** Values just outside a domain's finite bounds. */
std::vector<double>
justPast(const Declared &d)
{
    std::vector<double> out;
    const double step = d.integral ? 1.0 : 0.0;
    if (std::isfinite(d.domain.lo)) {
        out.push_back(d.domain.excludeLo
                          ? d.domain.lo
                          : d.domain.lo - std::max(step, 1e-9));
    }
    if (std::isfinite(d.domain.hi)) {
        out.push_back(d.domain.powerOfTwo
                          ? 2 * d.domain.hi
                          : d.domain.hi + std::max(step, d.domain.hi * 1e-9));
    }
    return out;
}

sim::JsonValue
numberFor(double value, bool integral)
{
    if (integral && value == std::floor(value) && std::fabs(value) < 9e18)
        return sim::JsonValue::makeInt(static_cast<std::int64_t>(value));
    return sim::JsonValue::makeNumber(value);
}

/** The values a leaf is mutated to; `declared` is null for a seed. */
std::vector<double>
mutations(const Declared *declared, sim::Rng &rng)
{
    std::vector<double> values = {0.0, -1.0, 1e18, 0.5};
    if (declared != nullptr) {
        for (const double v : justPast(*declared))
            values.push_back(v);
    }
    // One seeded draw per leaf, log-uniform over 1e-3 .. 1e20.
    values.push_back((rng.nextBelow(2) ? 1.0 : -1.0) *
                     std::pow(10.0, -3.0 + 23.0 * rng.nextDouble()));
    return values;
}

/** Every numeric leaf of `dump`, mutated one at a time. */
void
addLeafCases(const std::string &label, const sim::JsonValue &dump,
             sim::Rng &rng, std::vector<Case> *cases)
{
    const auto declared = declaredDomains(dump);
    std::vector<Leaf> leaves;
    collectLeaves(dump, Leaf{}, &leaves);
    for (const auto &leaf : leaves) {
        const auto it = declared.find(leaf.path);
        // Seeds are the only undeclared leaves: the full uint64 range.
        const bool integral = it == declared.end() || it->second.integral;
        for (const double v :
             mutations(it == declared.end() ? nullptr : &it->second, rng)) {
            const auto mutated =
                replaced(dump, leaf.steps, 0, numberFor(v, integral));
            std::ostringstream name;
            name << label << ": " << leaf.path << " = " << v;
            cases->push_back({name.str(),
                              {"--rps", "2", "--duration", "5"},
                              mutated.dump()});
        }
    }
}

} // namespace

TEST(SpecMutation, EveryNumericLeafExitsCleanly)
{
    sim::Rng rng(0x5EED);
    std::vector<Case> cases;
    addLeafCases("preset", dumpOf({"--system", "slora-chunked"}), rng,
                 &cases);
    addLeafCases("fleet",
                 dumpOf({"--system", "chameleon", "--fleet",
                         "a100-48x1+a40x1", "--router", "p2c"}),
                 rng, &cases);
    addLeafCases("autoscaled",
                 dumpOf({"--system", "chameleon", "--replicas", "2",
                         "--autoscale", "--autoscale-boot-ms", "8000",
                         "--autoscale-alpha", "0.2",
                         "--autoscale-demand-source", "measured",
                         "--replica-rps", "4"}),
                 rng, &cases);
    addLeafCases(
        "fabric",
        dumpOf({}, R"({"scheduler": {"policy": "drr"},)"
                   R"( "cluster": {"replicas": 2, "router": "affinity-dir"},)"
                   R"( "fabric": {"migration": "all"},)"
                   R"( "tenancy": {"tenants": 2, "weights": [1, 2],)"
                   R"( "slo_multipliers": [1, 0.5]}})"),
        rng, &cases);
    expectCleanExits(cases);
}

TEST(SpecMutation, EveryNumericFlagExitsCleanly)
{
    struct Flag
    {
        const char *name;
        std::vector<std::string> context; ///< flags it needs beside it
        const char *pastBound;            ///< just outside its domain
    };
    const std::vector<Flag> flags = {
        {"--rps", {"--duration", "5"}, "838861"},
        {"--duration", {"--rps", "2"}, "1000000001"},
        {"--adapters", {}, "2147483648"},
        {"--seed", {}, "-9223372036854775809"},
        {"--tp", {}, "2048"},
        {"--mem-gib", {"--gpu", "a100"}, "81"},
        {"--tenants", {}, "2147483648"},
        {"--tenant-storm", {"--tenants", "2"}, "0.999999"},
        {"--slo-multiplier", {}, "-1e-9"},
        {"--predictor-acc", {}, "1.0000001"},
        {"--replicas", {}, "2147483648"},
        {"--fabric-top-k", {"--replicas", "2", "--migration", "all"}, "0"},
        {"--min-replicas", {"--autoscale"}, "2147483648"},
        {"--max-replicas", {"--autoscale"}, "2147483648"},
        {"--replica-rps", {"--autoscale"}, "-1e-9"},
        {"--autoscale-boot-ms", {"--autoscale"}, "1000000000001"},
        {"--autoscale-alpha", {"--autoscale"}, "1.0000001"},
    };
    std::vector<Case> cases;
    for (const auto &flag : flags) {
        for (const char *value :
             {"0", "-1", "1000000000000000000", "1e18", "0.5", flag.pastBound,
              "nan", "inf"}) {
            Case c;
            c.label = std::string(flag.name) + " " + value;
            c.args = {"--rps", "2", "--duration", "5"};
            c.args.insert(c.args.end(), flag.context.begin(),
                          flag.context.end());
            c.args.insert(c.args.end(), {flag.name, value});
            cases.push_back(std::move(c));
        }
    }
    expectCleanExits(cases);
}

TEST(SpecMutation, EveryPresetModelGpuTpExitsCleanly)
{
    // 13 of these do not fit in memory; they must be usage errors.
    std::vector<Case> cases;
    for (const char *model :
         {"llama-7b", "llama-13b", "llama-30b", "llama-70b"}) {
        for (const std::vector<std::string> &gpu :
             std::vector<std::vector<std::string>>{
                 {"--gpu", "a40"},
                 {"--gpu", "a100", "--mem-gib", "24"},
                 {"--gpu", "a100", "--mem-gib", "48"},
                 {"--gpu", "a100", "--mem-gib", "80"}}) {
            for (const char *tp : {"1", "2", "4", "8"}) {
                Case c;
                c.label = std::string(model) + " " + gpu.back() + " tp " + tp;
                c.args = {"--model", model, "--tp", tp, "--rps", "2",
                          "--duration", "5"};
                c.args.insert(c.args.end(), gpu.begin(), gpu.end());
                cases.push_back(std::move(c));
            }
        }
    }
    expectCleanExits(cases);
}

TEST(SpecMutation, LongestRequestsExitCleanly)
{
    // A request served alone must fit one span (simkit/time.h). At
    // max_running 1 every decode step is an iteration of its own; the
    // default llama-7b on an A40 spends about 1e6 s on a 2^20-token
    // request, leaving about 950 s per decode step for the fixed costs.
    const std::vector<std::pair<std::string, int>> costs = {
        {R"("decode_fixed_ms": 9e5)", 0},
        {R"("decode_fixed_ms": 1e6)", 2},
        {R"("decode_fixed_ms": 1e12)", 2},
        {R"("decode_rank_us": 1e15)", 2},
        {R"("prefill_fixed_ms": 9e11)", 0},
        {R"("prefill_fixed_ms": 1e12)", 2},
    };
    std::vector<Case> cases;
    for (const auto &[cost, exitCode] : costs) {
        cases.push_back({cost,
                         {"--rps", "8", "--duration", "60"},
                         R"({"engine": {"max_running": 1, "cost": {)" + cost +
                             "}}}"});
    }
    const auto results = runAll(cases);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(results[i].exitCode, costs[i].second)
            << cases[i].label << "\n"
            << results[i].stderrTail;
    }
}

TEST(SweepMutation, EveryNumericLeafExitsCleanly)
{
    // One system at one load for 5 s, so no mutation of `threads`
    // starts a second worker. Every leaf the sweep owns is set; the
    // engine and autoscaler templates are spec leaves, covered above.
    const std::string base =
        R"({"systems": ["chameleon"], "loads": [2], "replicas": [1],)"
        R"( "threads": 1, "workload": {"duration_s": 5, "adapters": 8,)"
        R"( "burst_multiplier": 2.5, "burst_period_s": 2,)"
        R"( "burst_duration_s": 0.5, "tenants": 2, "tenant_storm": 2}})";
    std::string error;
    const auto spec = sweep::sweepFromJson(base, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    std::map<std::string, Declared> declared;
    sim::walkDomains(*spec, [&declared](const std::string &path, auto value,
                                        const sim::Domain &domain) {
        for (const char *own :
             {"loads[", "replicas[", "threads", "workload."}) {
            if (path.rfind(own, 0) == 0) {
                declared[path] = {domain,
                                  std::is_integral_v<decltype(value)>};
            }
        }
    });
    const auto doc = sim::parseJson(base);
    ASSERT_TRUE(doc.has_value());
    std::vector<Leaf> leaves;
    collectLeaves(*doc, Leaf{}, &leaves);
    ASSERT_EQ(leaves.size(), declared.size())
        << "a numeric leaf of the sweep is missing from the base sweep";

    sim::Rng rng(0x5EED);
    const std::vector<std::string> out = {"--out", "/dev/null"};
    std::vector<Case> cases;
    for (const auto &leaf : leaves) {
        const auto it = declared.find(leaf.path);
        ASSERT_NE(it, declared.end()) << leaf.path;
        for (const double v : mutations(&it->second, rng)) {
            std::ostringstream name;
            name << "sweep: " << leaf.path << " = " << v;
            const auto mutated = replaced(
                *doc, leaf.steps, 0, numberFor(v, it->second.integral));
            cases.push_back({name.str(), out, mutated.dump(),
                             CHAMELEON_SWEEP_BIN});
        }
    }
    // Each of these aborted in the trace generator or never finished.
    for (const char *workload :
         {R"("burst_multiplier": 100, "burst_duration_s": -1)",
          R"("burst_multiplier": 1e308)",
          R"("burst_multiplier": 1e300, "burst_duration_s": 1e-300)"}) {
        cases.push_back({workload, out,
                         std::string(R"({"systems": ["chameleon"],)") +
                             R"( "workload": {"duration_s": 5, )" + workload +
                             "}}",
                         CHAMELEON_SWEEP_BIN});
    }
    // The document is written after the run; a bad path aborted there.
    cases.push_back({"unwritable output",
                     {"--out", testing::TempDir() + "no/such/dir.json"},
                     base,
                     CHAMELEON_SWEEP_BIN});
    expectCleanExits(cases);
}
