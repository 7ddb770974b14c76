#include "chameleon/spec_json.h"

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "model/gpu_spec.h"
#include "model/llm.h"
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
    void field(const char *key, M T::*member)
    {
        out.set(key, toJson(in.*member));
    }

    /** "cluster.replicas": a count, or the resolved per-replica engines.
     * Printing every engine field (rather than a diff against "engine")
     * keeps the round trip exact whatever base they were applied onto. */
    void field(const char *key, int T::*count,
               std::vector<serving::EngineConfig> T::*engines)
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

    void seconds(const char *key, sim::SimTime T::*member)
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

// ---------------------------------------------------------------------
// Parsing: the same field lists drive the strict JsonObjectReader
// getters, so absent keys keep their defaults and every error names
// its key path. The walk stops at the first failure.
// ---------------------------------------------------------------------

template <typename T>
bool parseObject(const JsonValue &value, const std::string &path, T *out,
                 std::string *error,
                 const serving::EngineConfig *base = nullptr);

template <typename T>
class JsonParser
{
  public:
    /** @param base the engine "cluster.replicas" overrides apply onto
     *  (only a SystemSpec, which owns it, contains a cluster) */
    JsonParser(const JsonValue &value, const std::string &path, T *out,
               std::string *error, const serving::EngineConfig *base)
        : reader_(value, path, error), out_(out), error_(error),
          base_(base)
    {
    }

    template <typename M>
    void field(const char *key, M T::*member)
    {
        ok_ = ok_ && read(key, &(out_->*member));
    }

    void field(const char *key, int T::*count,
               std::vector<serving::EngineConfig> T::*engines)
    {
        ok_ = ok_ && readReplicas(key, &(out_->*count), &(out_->*engines));
    }

    void seconds(const char *key, sim::SimTime T::*member)
    {
        double value = sim::toSeconds(out_->*member);
        ok_ = ok_ && reader_.getDouble(key, &value);
        if (ok_)
            out_->*member = sim::fromSeconds(value);
    }

    void seed(const char *key, std::uint64_t T::*member)
    {
        ok_ = ok_ && reader_.getUint64(key, &(out_->*member));
    }

    /** After the walk: false on the first failure or an unknown key. */
    bool finish() { return ok_ && reader_.finish(); }

  private:
    template <typename M>
    bool read(const char *key, M *out)
    {
        if constexpr (std::is_same_v<M, bool>)
            return reader_.getBool(key, out);
        else if constexpr (std::is_same_v<M, double>)
            return reader_.getDouble(key, out);
        else if constexpr (std::is_same_v<M, int>)
            return reader_.getInt(key, out);
        else if constexpr (std::is_same_v<M, std::int64_t>)
            return reader_.getInt64(key, out);
        else if constexpr (std::is_same_v<M, std::size_t>)
            return reader_.getSize(key, out);
        else if constexpr (std::is_same_v<M, std::string>)
            return reader_.getString(key, out);
        else if constexpr (std::is_enum_v<M>)
            return reader_.getEnum(key, out, sim::enumByName<M>,
                                   sim::enumNames<M>());
        else if constexpr (std::is_same_v<M, std::vector<double>>)
            return readNumbers(key, out);
        else
            return readObject(key, out);
    }

    /** A nested struct; models and GPUs also take a preset name. */
    template <typename S>
    bool readObject(const char *key, S *out)
    {
        const JsonValue *v = reader_.child(key);
        if (v == nullptr)
            return reader_.ok();
        if constexpr (std::is_same_v<S, model::ModelSpec>) {
            if (v->isString()) {
                return model::tryModelByName(v->asString(), out) ||
                       reader_.fail(key, "unknown model preset \"" +
                                             v->asString() + "\"; known: " +
                                             model::modelPresetNames() +
                                             " (or a full model object)");
            }
        }
        if constexpr (std::is_same_v<S, model::GpuSpec>) {
            if (v->isString()) {
                return model::tryGpuByName(v->asString(), out) ||
                       reader_.fail(key, "unknown gpu preset \"" +
                                             v->asString() + "\"; known: " +
                                             model::gpuPresetNames() +
                                             " (or a full gpu object)");
            }
        }
        return parseObject(*v, reader_.pathOf(key), out, error_, base_);
    }

    /** An array of numbers; empty allowed (= "use the defaults"). */
    bool readNumbers(const char *key, std::vector<double> *out)
    {
        const JsonValue *v = reader_.child(key);
        if (v == nullptr)
            return reader_.ok();
        if (!v->isArray())
            return reader_.fail(key, "expects an array of numbers");
        out->clear();
        for (const auto &item : v->items()) {
            if (!item.isNumber())
                return reader_.fail(key, "expects an array of numbers");
            out->push_back(item.asNumber());
        }
        return true;
    }

    /**
     * "replicas" is polymorphic: an integer count (homogeneous fleet,
     * every replica from the base engine) or an ordered array of
     * per-replica engine overrides applied onto that base. The
     * parse-only "fleet" is shorthand for the array form: a GPU-mix
     * preset like "a100x2+a40x2" expands to one replica per GPU.
     */
    bool readReplicas(const char *key, int *count,
                      std::vector<serving::EngineConfig> *engines)
    {
        const JsonValue *replicas = reader_.child(key);
        const JsonValue *fleet = reader_.child("fleet");
        if (replicas != nullptr && fleet != nullptr) {
            return reader_.fail("fleet",
                                "conflicts with \"" + reader_.pathOf(key) +
                                    "\"; the fleet preset already "
                                    "defines the replica count and GPU "
                                    "mix");
        }
        if (replicas != nullptr && replicas->isArray()) {
            if (replicas->items().empty()) {
                return reader_.fail(key,
                                    "must not be an empty array; use an "
                                    "integer count for a homogeneous "
                                    "fleet");
            }
            engines->clear();
            for (std::size_t i = 0; i < replicas->items().size(); ++i) {
                const JsonValue &entry = replicas->items()[i];
                const std::string entryKey =
                    std::string(key) + "[" + std::to_string(i) + "]";
                serving::EngineConfig cfg = *base_;
                if (entry.isString()) {
                    // Bare string = GPU-preset shorthand.
                    if (!model::tryGpuByName(entry.asString(), &cfg.gpu)) {
                        return reader_.fail(
                            entryKey, "unknown gpu preset \"" +
                                          entry.asString() +
                                          "\"; known: " +
                                          model::gpuPresetNames() +
                                          " (or an engine-override "
                                          "object)");
                    }
                } else if (!parseObject(entry, reader_.pathOf(entryKey),
                                        &cfg, error_)) {
                    return false;
                }
                engines->push_back(std::move(cfg));
            }
            *count = static_cast<int>(engines->size());
        } else if (replicas != nullptr) {
            if (!replicas->isIntegral() ||
                replicas->isUnsignedIntegral() ||
                replicas->asInt() < std::numeric_limits<int>::min() ||
                replicas->asInt() > std::numeric_limits<int>::max()) {
                return reader_.fail(key,
                                    "expects an integer count or an "
                                    "array of per-replica engine "
                                    "overrides");
            }
            *count = static_cast<int>(replicas->asInt());
        }
        if (fleet != nullptr) {
            if (!fleet->isString()) {
                return reader_.fail("fleet",
                                    "expects a fleet-preset string: " +
                                        model::fleetGrammarHelp());
            }
            std::vector<model::GpuSpec> gpus;
            if (!model::tryFleetByName(fleet->asString(), &gpus)) {
                return reader_.fail("fleet", "unknown fleet preset \"" +
                                                 fleet->asString() +
                                                 "\"; expected " +
                                                 model::fleetGrammarHelp());
            }
            *engines = serving::fleetEngines(*base_, gpus);
            *count = static_cast<int>(engines->size());
        }
        return true;
    }

    sim::JsonObjectReader reader_;
    T *out_;
    std::string *error_;
    const serving::EngineConfig *base_;
    bool ok_ = true;
};

template <typename T>
bool
parseObject(const JsonValue &value, const std::string &path, T *out,
            std::string *error, const serving::EngineConfig *base)
{
    JsonParser<T> parser(value, path, out, error, base);
    T::fields(parser);
    return parser.finish();
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

bool
engineFromJson(const JsonValue &obj, const std::string &path,
               serving::EngineConfig *out, std::string *error)
{
    return parseObject(obj, path, out, error);
}

bool
predictorFromJson(const JsonValue &obj, const std::string &path,
                  PredictorSpec *out, std::string *error)
{
    return parseObject(obj, path, out, error);
}

bool
fabricFromJson(const JsonValue &obj, const std::string &path,
               FabricSpec *out, std::string *error)
{
    return parseObject(obj, path, out, error);
}

bool
autoscalerFromJson(const JsonValue &obj, const std::string &path,
                   routing::AutoscalerConfig *out, std::string *error)
{
    return parseObject(obj, path, out, error);
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
    if (!parseObject(root, "", &spec, error, &spec.engine)) {
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
