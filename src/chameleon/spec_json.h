/**
 * @file
 * SystemSpec <-> JSON: reproducible, file-backed system descriptions,
 * and the one field-list reader every spec-shaped JSON input uses.
 *
 * specToJson prints a complete SystemSpec — every policy axis, every
 * engine knob, the full ClusterSpec — as pretty JSON; specFromJson
 * parses it back onto the documented defaults. The pair is
 * round-trip-stable: parse(print(spec)) == spec under
 * SystemSpec::operator==, asserted by tests/spec_json_test.cc. Print,
 * parse and operator== all walk each struct's one field list
 * (simkit/fields.h), so a key is spelled once, next to its member.
 *
 * Parsing is strict and partial at once: any key may be omitted (its
 * default survives — `{}` is the paper testbed's full Chameleon), but
 * an unknown or mistyped key fails with a message naming the offending
 * key path ("scheduler.polcy", "cluster.replicas expects an integer
 * count or an array of per-replica engine overrides").
 *
 * Heterogeneous fleets: "cluster.replicas" also accepts an ordered
 * array — one engine-override object (or GPU-preset string) per
 * replica, applied onto the top-level "engine" — and "cluster.fleet"
 * accepts a GPU-mix preset like "a100x2+a40x2"
 * (model::tryFleetByName). Printing always emits the fully resolved
 * per-replica engines, so the round trip stays bit-identical.
 * Parsed specs are also run through SystemSpec::validate(), so a
 * config that names a contradiction fails with the same actionable
 * messages the Runner would emit.
 *
 * chameleon_sim exposes this as --config file.json / --dump-config.
 * fieldsFromJson reads any struct with a field list; the sweep file
 * (src/sweep/sweep_spec.h) is parsed by it too, templates and axes
 * included.
 */

#ifndef CHAMELEON_CHAMELEON_SPEC_JSON_H
#define CHAMELEON_CHAMELEON_SPEC_JSON_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chameleon/system_spec.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "simkit/json.h"

namespace chameleon::core {

/** Serialise the full spec (all axes and knobs) as a JSON document. */
std::string specToJson(const SystemSpec &spec);

/** As specToJson, but as a document model (for embedding/inspection). */
sim::JsonValue specToJsonValue(const SystemSpec &spec);

/**
 * Parse a spec from JSON text. Missing keys keep their defaults
 * (hardware defaults to the paper testbed: Llama-7B on an A40);
 * unknown/mistyped keys and validate() contradictions return
 * std::nullopt with an error naming the offending key.
 */
std::optional<SystemSpec> specFromJson(const std::string &text,
                                       std::string *error = nullptr);

/** As specFromJson, from an already parsed document. */
std::optional<SystemSpec> specFromJsonValue(const sim::JsonValue &root,
                                            std::string *error = nullptr);

/**
 * Apply the JSON object `value` onto *out through T's field list: a
 * present key overwrites its member, an absent one keeps it, and the
 * first mistyped or unknown key fails with a message naming its dotted
 * path under `path`. Domains are the caller's to check on the result
 * (sim::checkDomains), except a time's, whose conversion would
 * overflow. Models and GPUs also take a preset name ("llama-7b",
 * "a40").
 *
 * @param base the engine "cluster.replicas" overrides apply onto: a
 *        SystemSpec's own engine (only a ClusterSpec reads it)
 */
template <typename T>
bool fieldsFromJson(const sim::JsonValue &value, const std::string &path,
                    T *out, std::string *error,
                    const serving::EngineConfig *base = nullptr);

namespace detail {

template <typename M>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;
template <typename M>
inline constexpr bool kIsOptional = false;
template <typename E>
inline constexpr bool kIsOptional<std::optional<E>> = true;

/** The field-list visitor behind fieldsFromJson. The walk stops at the
 * first failure. */
template <typename T>
class JsonParser
{
  public:
    JsonParser(const sim::JsonValue &value, const std::string &path, T *out,
               std::string *error, const serving::EngineConfig *base)
        : reader_(value, path, error), out_(out), error_(error),
          base_(base)
    {
    }

    template <typename M>
    void field(const char *key, M T::*member, sim::Domain = {})
    {
        ok_ = ok_ && read(reader_, key, &(out_->*member), false);
    }

    template <typename M>
    void axis(const char *key, M T::*member, sim::Domain = {})
    {
        ok_ = ok_ && read(reader_, key, &(out_->*member), true);
    }

    void field(const char *key, int T::*count,
               std::vector<serving::EngineConfig> T::*engines, sim::Domain)
    {
        ok_ = ok_ && readReplicas(key, &(out_->*count), &(out_->*engines));
    }

    /** A time out of its domain would overflow SimTime on conversion. */
    void seconds(const char *key, sim::SimTime T::*member,
                 sim::Domain domain)
    {
        double value = sim::toSeconds(out_->*member);
        ok_ = ok_ && reader_.getDouble(key, &value);
        if (ok_ && !domain.contains(value)) {
            ok_ = reader_.fail(key, "must be " + domain.describe() +
                                        " (got " + sim::formatDouble(value) +
                                        ")");
        }
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
    /** `key` of `r` into *out, by its type. An axis rejects empty
     * arrays, at any depth. */
    template <typename M>
    bool read(sim::JsonObjectReader &r, const std::string &key, M *out,
              bool axis)
    {
        if constexpr (std::is_same_v<M, bool>) {
            return r.getBool(key, out);
        } else if constexpr (std::is_same_v<M, double>) {
            return r.getDouble(key, out);
        } else if constexpr (std::is_same_v<M, int>) {
            return r.getInt(key, out);
        } else if constexpr (std::is_same_v<M, std::int64_t>) {
            return r.getInt64(key, out);
        } else if constexpr (std::is_same_v<M, std::size_t>) {
            return r.getSize(key, out);
        } else if constexpr (std::is_same_v<M, std::string>) {
            return r.getString(key, out);
        } else if constexpr (std::is_enum_v<M>) {
            return r.getEnum(key, out, sim::enumByName<M>,
                             sim::enumNames<M>());
        } else if constexpr (kIsVector<M>) {
            return readList(r, key, out, axis);
        } else if constexpr (kIsOptional<M>) {
            if (r.child(key) == nullptr)
                return r.ok();
            auto value = out->value_or(typename M::value_type{});
            if (!read(r, key, &value, axis))
                return false;
            *out = std::move(value);
            return true;
        } else {
            return readObject(r, key, out);
        }
    }

    /** An array whose element i reads as the one member "key[i]" of an
     * object, so an element takes any type a member does and its
     * errors name it. */
    template <typename E>
    bool readList(sim::JsonObjectReader &r, const std::string &key,
                  std::vector<E> *out, bool axis)
    {
        const sim::JsonValue *v = r.child(key);
        if (v == nullptr)
            return r.ok();
        if (!v->isArray()) {
            return r.fail(key, std::string("expects an array, got ") +
                                   sim::JsonValue::kindName(v->kind()));
        }
        if (axis && v->items().empty()) {
            return r.fail(key, "must not be an empty array (an axis takes "
                               "at least one value; omit the key for its "
                               "default)");
        }
        std::vector<E> items;
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            const std::string at = key + "[" + std::to_string(i) + "]";
            sim::JsonValue one = sim::JsonValue::makeObject();
            one.set(at, v->items()[i]);
            sim::JsonObjectReader element(one, r.pathOf(""), error_);
            E item{};
            if (!read(element, at, &item, axis))
                return false;
            items.push_back(std::move(item));
        }
        *out = std::move(items);
        return true;
    }

    /** A nested struct; models and GPUs also take a preset name. */
    template <typename S>
    bool readObject(sim::JsonObjectReader &r, const std::string &key, S *out)
    {
        const sim::JsonValue *v = r.child(key);
        if (v == nullptr)
            return r.ok();
        if constexpr (std::is_same_v<S, model::ModelSpec>) {
            if (v->isString()) {
                return model::tryModelByName(v->asString(), out) ||
                       r.fail(key, "unknown model preset \"" +
                                       v->asString() + "\"; known: " +
                                       model::modelPresetNames() +
                                       " (or a full model object)");
            }
        }
        if constexpr (std::is_same_v<S, model::GpuSpec>) {
            if (v->isString()) {
                return model::tryGpuByName(v->asString(), out) ||
                       r.fail(key, "unknown gpu preset \"" + v->asString() +
                                       "\"; known: " +
                                       model::gpuPresetNames() +
                                       " (or a full gpu object)");
            }
        }
        return fieldsFromJson(*v, r.pathOf(key), out, error_, base_);
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
        const sim::JsonValue *replicas = reader_.child(key);
        const sim::JsonValue *fleet = reader_.child("fleet");
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
                const sim::JsonValue &entry = replicas->items()[i];
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
                } else if (!fieldsFromJson(entry, reader_.pathOf(entryKey),
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

} // namespace detail

template <typename T>
bool
fieldsFromJson(const sim::JsonValue &value, const std::string &path, T *out,
               std::string *error, const serving::EngineConfig *base)
{
    detail::JsonParser<T> parser(value, path, out, error, base);
    T::fields(parser);
    return parser.finish();
}

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SPEC_JSON_H
