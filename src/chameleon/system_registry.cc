#include "chameleon/system_registry.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "simkit/check.h"

namespace chameleon::core {

namespace {

/** "prefetch16" -> ("prefetch", 16); no digits -> value = -1. */
bool
splitNumericSuffix(const std::string &token, const std::string &stem,
                   long long *value)
{
    if (token.compare(0, stem.size(), stem) != 0)
        return false;
    const std::string digits = token.substr(stem.size());
    if (digits.empty()) {
        *value = -1;
        return true;
    }
    if (!std::all_of(digits.begin(), digits.end(),
                     [](unsigned char c) { return std::isdigit(c); }))
        return false;
    *value = std::strtoll(digits.c_str(), nullptr, 10);
    return true;
}

} // namespace

SystemRegistry::SystemRegistry()
{
    add("slora", presets::slora(),
        "S-LoRA baseline: FIFO + fetch-on-demand/prefetch/discard [49]");
    add("slora-sjf", presets::sloraSjf(),
        "S-LoRA with the uServe shortest-job-first scheduler [46]");
    add("slora-chunked", presets::sloraChunked(),
        "S-LoRA with chunked prefill (Sarathi [1])");
    add("chameleon-nocache", presets::chameleonNoCache(),
        "Chameleon scheduler over baseline adapter management");
    add("chameleon-nosched", presets::chameleonNoSched(),
        "Chameleon adapter cache under FIFO scheduling");
    add("chameleon", presets::chameleon(),
        "the full system: MLQ scheduler + adapter cache (§4)");
    add("chameleon-lru", presets::chameleonLru(),
        "full system with LRU eviction (Fig. 17)");
    add("chameleon-fairshare", presets::chameleonFairShare(),
        "full system with equal-weight eviction (Fig. 17)");
    add("chameleon-gdsf", presets::chameleonGdsf(),
        "full system with GDSF eviction (§5.3.3)");
    add("chameleon-prefetch", presets::chameleonPrefetch(),
        "full system + histogram-based predictive prefetch (Fig. 18)");
    add("chameleon-static", presets::chameleonStatic(),
        "static queues and quotas variant (Fig. 22)");
    add("chameleon-output-only", presets::chameleonOutputOnly(),
        "WRS = predicted output length only (Fig. 19)");
    add("chameleon-degree1", presets::chameleonDegree1(),
        "degree-1 WRS polynomial (§4.3.1 ablation)");
}

SystemRegistry &
SystemRegistry::global()
{
    static SystemRegistry registry;
    return registry;
}

void
SystemRegistry::add(const std::string &name, SystemSpec spec,
                    std::string description)
{
    CHM_CHECK(!name.empty(), "registry names cannot be empty");
    spec.name = name;
    entries_[name] = Entry{std::move(spec), std::move(description)};
}

bool
SystemRegistry::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

const char *
SystemRegistry::applyModifier(SystemSpec &spec, const std::string &token,
                              std::string *error)
{
    long long value = 0;
    SchedulerPolicy scheduler = SchedulerPolicy::Mlq;
    // Eviction axis (implies the chameleon cache stays required;
    // validate() rejects the combination on a cacheless base).
    static constexpr sim::EnumName<EvictionKind> kEvictions[] = {
        {EvictionKind::Lru, "lru"},
        {EvictionKind::FairShare, "fairshare"},
        {EvictionKind::FairShare, "fair-share"},
        {EvictionKind::Gdsf, "gdsf"},
        {EvictionKind::Paper, "paper"},
    };
    for (const auto &row : kEvictions) {
        if (token == row.name) {
            spec.adapters.eviction = row.value;
            return "eviction";
        }
    }
    if (schedulerPolicyByName(token, &scheduler)) {
        spec.scheduler.policy = scheduler;
        return "scheduler";
    }
    if (token == "cache" || token == "ondemand" || token == "on-demand") {
        spec.adapters.policy = token == "cache"
                                   ? AdapterPolicy::ChameleonCache
                                   : AdapterPolicy::OnDemand;
        return "adapter-policy";
    }
    if (token == "noprefetch") {
        spec.adapters.predictivePrefetch = false;
        spec.adapters.prefetchTopK = 0;
        return "prefetch";
    }
    if (splitNumericSuffix(token, "prefetch", &value)) {
        spec.adapters.predictivePrefetch = true;
        spec.adapters.prefetchTopK =
            value < 0 ? 8 : static_cast<std::size_t>(value);
        return "prefetch";
    }
    if (token == "bypass" || token == "nobypass") {
        spec.scheduler.bypass = token == "bypass";
        return "bypass";
    }
    if (token == "static" || token == "dynamic") {
        spec.scheduler.dynamicQueues = token == "dynamic";
        return "queues";
    }
    if (sim::enumByName(token, &spec.predictor.kind))
        return "predictor";
    if (splitNumericSuffix(token, "chunked", &value)) {
        spec.chunkedPrefill = true;
        if (value >= 0)
            spec.chunkTokens = value;
        return "chunking";
    }
    if (error != nullptr) {
        std::ostringstream os;
        os << "unknown system modifier '+" << token << "'; known: ";
        const auto mods = modifierHelp();
        for (std::size_t i = 0; i < mods.size(); ++i)
            os << (i ? ", " : "") << mods[i];
        *error = os.str();
    }
    return nullptr;
}

std::optional<SystemSpec>
SystemRegistry::find(const std::string &name, std::string *error) const
{
    const auto exact = entries_.find(name);
    if (exact != entries_.end())
        return exact->second.spec;

    const auto plus = name.find('+');
    const std::string baseName =
        plus == std::string::npos ? name : name.substr(0, plus);
    const auto base = entries_.find(baseName);
    if (base == entries_.end()) {
        if (error != nullptr) {
            std::ostringstream os;
            os << "unknown system '" << baseName
               << "'; try --list-systems for the registered names "
               << "(compose variants as base+modifier, e.g. "
               << "\"chameleon+gdsf+prefetch\")";
            *error = os.str();
        }
        return std::nullopt;
    }
    SystemSpec spec = base->second.spec;
    // Axis -> the modifier token that set it.
    std::map<std::string, std::string> axisTokens;
    if (plus != std::string::npos) {
        std::string rest = name.substr(plus + 1);
        while (true) {
            const auto next = rest.find('+');
            const std::string token = rest.substr(0, next);
            // An empty token means a stray '+' (trailing, leading, or
            // doubled) — reject rather than silently running the base.
            if (token.empty()) {
                if (error != nullptr)
                    *error = "empty modifier in '" + name + "'";
                return std::nullopt;
            }
            const char *axis = applyModifier(spec, token, error);
            if (axis == nullptr)
                return std::nullopt;
            const auto [earlier, fresh] = axisTokens.emplace(axis, token);
            if (!fresh) {
                if (error != nullptr)
                    *error = "modifiers '+" + earlier->second + "' and '+" +
                             token + "' in '" + name + "' both set the " +
                             axis + " axis; keep one";
                return std::nullopt;
            }
            if (next == std::string::npos)
                break;
            rest = rest.substr(next + 1);
        }
    }
    spec.name = name;
    return spec;
}

SystemSpec
SystemRegistry::lookup(const std::string &name) const
{
    std::string error;
    auto spec = find(name, &error);
    if (!spec.has_value())
        CHM_FATAL(error);
    return *spec;
}

std::vector<std::string>
SystemRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

const std::string &
SystemRegistry::description(const std::string &name) const
{
    static const std::string empty;
    const auto it = entries_.find(name);
    return it == entries_.end() ? empty : it->second.description;
}

std::vector<std::string>
SystemRegistry::modifierHelp()
{
    std::vector<std::string> help = {"lru", "fairshare", "gdsf", "paper"};
    for (const auto &row : enumTable(SchedulerPolicy{}))
        help.push_back(row.name);
    help.insert(help.end(),
                {"cache", "ondemand", "prefetch[K]", "noprefetch",
                 "bypass", "nobypass", "static", "dynamic", "history",
                 "bert", "chunked[N]"});
    return help;
}

} // namespace chameleon::core
