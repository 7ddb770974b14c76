#include "chameleon/spec_json.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "simkit/time.h"

namespace chameleon::core {

using sim::JsonValue;

namespace {

// ---------------------------------------------------------------------
// Printing: every struct prints its field list (simkit/fields.h) in
// order, so the key order of a dump is the order of the list.
// ---------------------------------------------------------------------

template <typename M>
JsonValue toJson(const M &value);

template <typename T>
struct JsonPrinter
{
    const T &in;
    JsonValue out = JsonValue::makeObject();

    template <typename M>
    void field(const char *key, M T::*member, sim::Domain = {})
    {
        out.set(key, toJson(in.*member));
    }

    /** "cluster.replicas": a count, or the resolved per-replica engines.
     * Printing every engine field (rather than a diff against "engine")
     * keeps the round trip exact whatever base they were applied onto. */
    void field(const char *key, int T::*count,
               std::vector<serving::EngineConfig> T::*engines, sim::Domain)
    {
        if ((in.*engines).empty()) {
            out.set(key, toJson(in.*count));
            return;
        }
        JsonValue list = JsonValue::makeArray();
        for (const auto &engine : in.*engines)
            list.push(toJson(engine));
        out.set(key, std::move(list));
    }

    void seconds(const char *key, sim::SimTime T::*member, sim::Domain)
    {
        out.set(key, JsonValue::makeNumber(sim::toSeconds(in.*member)));
    }

    void seed(const char *key, std::uint64_t T::*member)
    {
        out.set(key, JsonValue::makeUint64(in.*member));
    }
};

template <typename M>
JsonValue
toJson(const M &value)
{
    if constexpr (std::is_same_v<M, bool>) {
        return JsonValue::makeBool(value);
    } else if constexpr (std::is_same_v<M, double>) {
        return JsonValue::makeNumber(value);
    } else if constexpr (std::is_same_v<M, int> ||
                         std::is_same_v<M, std::int64_t> ||
                         std::is_same_v<M, std::size_t>) {
        return JsonValue::makeInt(static_cast<std::int64_t>(value));
    } else if constexpr (std::is_same_v<M, std::string>) {
        return JsonValue::makeString(value);
    } else if constexpr (std::is_enum_v<M>) {
        return JsonValue::makeString(sim::enumName(value));
    } else if constexpr (std::is_same_v<M, std::vector<double>>) {
        JsonValue list = JsonValue::makeArray();
        for (const double x : value)
            list.push(JsonValue::makeNumber(x));
        return list;
    } else {
        JsonPrinter<M> printer{value};
        M::fields(printer);
        return std::move(printer.out);
    }
}

} // namespace

JsonValue
specToJsonValue(const SystemSpec &spec)
{
    return toJson(spec);
}

std::string
specToJson(const SystemSpec &spec)
{
    return specToJsonValue(spec).dump();
}

std::optional<SystemSpec>
specFromJsonValue(const JsonValue &root, std::string *error)
{
    SystemSpec spec;
    // The documented parse base: the paper testbed's hardware under the
    // default (full Chameleon) axes, so `{}` is a runnable config.
    spec.engine.model = model::llama7B();
    spec.engine.gpu = model::a40();

    // "engine" precedes "cluster" in the field list, so per-replica
    // overrides apply onto the parsed base engine wherever the keys
    // appeared in the document.
    if (!fieldsFromJson(root, "", &spec, error, &spec.engine)) {
        if (error != nullptr && error->rfind("spec json:", 0) != 0)
            *error = "spec json: " + *error;
        return std::nullopt;
    }

    const auto problems = spec.validate();
    if (!problems.empty()) {
        if (error != nullptr) {
            std::string message = "spec json: \"" + spec.name +
                                  "\" parses but fails validation:";
            for (const auto &p : problems)
                message += "\n  - " + p;
            *error = message;
        }
        return std::nullopt;
    }
    return spec;
}

std::optional<SystemSpec>
specFromJson(const std::string &text, std::string *error)
{
    std::string parseError;
    auto doc = sim::parseJson(text, &parseError);
    if (!doc.has_value()) {
        if (error != nullptr)
            *error = "spec json: " + parseError;
        return std::nullopt;
    }
    return specFromJsonValue(*doc, error);
}

} // namespace chameleon::core
