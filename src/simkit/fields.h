/**
 * @file
 * Field lists: each spec struct names its members once, with their
 * JSON keys and the values they accept, and visitors walk that one
 * list.
 *
 * A struct opts in with a static member template:
 *
 *   template <typename V>
 *   static void fields(V &v)
 *   {
 *       v.field("name", &GpuSpec::name);
 *       v.field("tp_degree", &EngineConfig::tpDegree, sim::powerOfTwo(1024));
 *       v.seconds("mem_sample_period_s", &EngineConfig::memSamplePeriod,
 *                 sim::nonNegative(sim::kMaxSpanSeconds));
 *   }
 *
 * Member pointers read const and non-const objects alike and pair up
 * two objects, so the one list drives the spec JSON printer and the
 * JSON reader of specs and sweeps (chameleon/spec_json.h), fieldsEqual
 * and checkDomains below. A
 * visitor implements every entry kind a list may use:
 *
 *   field(key, &T::m)            a string, bool, enum or nested struct,
 *                                or a vector or optional of one;
 *   field(key, &T::m, domain)    a number, or a vector or optional of
 *                                numbers whose every element lies in
 *                                the domain;
 *   axis(key, &T::m[, domain])   as field, for a vector that must not
 *                                be given empty, nor any vector in it
 *                                (a sweep axis: omitted means default);
 *   field(key, &T::a, &T::b, d)  a count and its engine list behind
 *                                one JSON key (the count in domain d);
 *   seconds(key, &T::m, domain)  a SimTime, written as seconds;
 *   seed(key, &T::m)             a uint64 over its full range (RNG seeds).
 *
 * A numeric member listed without a domain does not compile: the
 * domain checker static_asserts on it.
 */

#ifndef CHAMELEON_SIMKIT_FIELDS_H
#define CHAMELEON_SIMKIT_FIELDS_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simkit/time.h"

namespace chameleon::sim {

/**
 * The values one numeric member accepts. Bounds are closed, except
 * that positive() excludes 0 itself. A floating-point value must also
 * be finite, so NaN and ±inf lie outside every domain. Integer bounds
 * stay below 2^53, where the comparison in double is exact.
 */
struct Domain
{
    double lo;
    double hi;
    bool excludeLo;
    bool powerOfTwo;

    template <typename N>
    bool contains(N value) const
    {
        const double x = static_cast<double>(value);
        // Written so that NaN fails the first test.
        if (!(x >= lo && x <= hi) || (excludeLo && x == lo))
            return false;
        if constexpr (std::is_integral_v<N>)
            return !powerOfTwo || (value & (value - 1)) == 0;
        else
            return std::isfinite(x);
    }

    /** The domain in words ("> 0", "within [0, 1]"), for messages. */
    std::string describe() const;
};

inline constexpr double kNoBound = std::numeric_limits<double>::infinity();

/** Shortest of %.6g / %.17g that reads back as `value`. */
std::string formatDouble(double value);

/** "<path> must be <domain> (got <got>)". */
std::string domainError(const std::string &path, const Domain &domain,
                        const std::string &got);

/** Any finite value (any value at all for an integer). */
constexpr Domain finite()
{
    return {-kNoBound, kNoBound, false, false};
}
/** > 0 (for integers, >= 1), and at most `hi`. */
constexpr Domain positive(double hi = kNoBound)
{
    return {0.0, hi, true, false};
}
/** >= 0, and at most `hi`. */
constexpr Domain nonNegative(double hi = kNoBound)
{
    return {0.0, hi, false, false};
}
/** Within [lo, hi]. */
constexpr Domain within(double lo, double hi)
{
    return {lo, hi, false, false};
}
/** An integer power of two within [1, hi]. */
constexpr Domain powerOfTwo(double hi)
{
    return {1.0, hi, false, true};
}

template <typename T>
bool fieldsEqual(const T &a, const T &b);

namespace detail {

template <typename M>
inline constexpr bool kScalar =
    std::is_arithmetic_v<M> && !std::is_same_v<M, bool>;

/** A number, or a vector or optional of numbers (checked per element). */
template <typename M>
inline constexpr bool kNumeric = kScalar<M>;
template <typename N>
inline constexpr bool kNumeric<std::vector<N>> = kScalar<N>;
template <typename N>
inline constexpr bool kNumeric<std::optional<N>> = kScalar<N>;

/** Every entry kind forwards to field(); each argument is taken alone. */
template <typename T>
struct FieldsEqual
{
    const T &a;
    const T &b;
    bool equal = true;

    template <typename... E>
    void field(const char *, E... entry)
    {
        (take(entry), ...);
    }
    template <typename... E>
    void axis(const char *key, E... entry)
    {
        field(key, entry...);
    }
    template <typename... E>
    void seconds(const char *key, E... entry)
    {
        field(key, entry...);
    }
    template <typename... E>
    void seed(const char *key, E... entry)
    {
        field(key, entry...);
    }

    template <typename M>
    void take(M T::*member)
    {
        equal = equal && a.*member == b.*member;
    }
    void take(Domain) {}
};

template <typename T>
struct FieldCount
{
    std::size_t count = 0;

    template <typename... E>
    void field(const char *, E...)
    {
        count += (0 + ... + !std::is_same_v<E, Domain>);
    }
    template <typename... E>
    void axis(const char *key, E... entry)
    {
        field(key, entry...);
    }
    template <typename... E>
    void seconds(const char *key, E... entry)
    {
        field(key, entry...);
    }
    template <typename... E>
    void seed(const char *key, E... entry)
    {
        field(key, entry...);
    }
};

/** Does M have a field list of its own (a nested spec struct)? */
template <typename M, typename = void>
inline constexpr bool kHasFields = false;
template <typename M>
inline constexpr bool kHasFields<
    M, std::void_t<decltype(M::fields(std::declval<FieldCount<M> &>()))>> =
    true;

/** Calls f(path, value, domain) for every numeric leaf under T. */
template <typename T, typename F>
struct DomainWalk
{
    const T &in;
    const std::string &prefix;
    F &f;
    /** Skip nested structs still at their default (see checkDomains). */
    bool skipDefaults;

    template <typename M>
    void field(const char *key, M T::*member)
    {
        static_assert(!kNumeric<M>,
                      "a numeric field declares its domain in fields()");
        if constexpr (kHasFields<M>) {
            if (!skipDefaults || !fieldsEqual(in.*member, M{}))
                walk(in.*member, prefix + key + ".");
        }
    }
    template <typename M>
    void field(const char *key, M T::*member, Domain domain)
    {
        const std::string path = prefix + key;
        const M &value = in.*member;
        if constexpr (kScalar<M>) {
            f(path, value, domain);
        } else if constexpr (std::is_same_v<M, std::optional<
                                                   typename M::value_type>>) {
            if (value.has_value())
                f(path, *value, domain);
        } else {
            for (std::size_t i = 0; i < value.size(); ++i)
                f(path + "[" + std::to_string(i) + "]", value[i], domain);
        }
    }
    template <typename... E>
    void axis(const char *key, E... entry)
    {
        field(key, entry...);
    }
    template <typename N, typename E>
    void field(const char *key, N T::*count, std::vector<E> T::*list,
               Domain domain)
    {
        const std::string path = prefix + key;
        f(path, in.*count, domain);
        for (std::size_t i = 0; i < (in.*list).size(); ++i)
            walk((in.*list)[i], path + "[" + std::to_string(i) + "].");
    }
    void seconds(const char *key, SimTime T::*member, Domain domain)
    {
        f(prefix + key, toSeconds(in.*member), domain);
    }
    void seed(const char *, std::uint64_t T::*) {}

    template <typename S>
    void walk(const S &obj, const std::string &path) const
    {
        DomainWalk<S, F> inner{obj, path, f, skipDefaults};
        S::fields(inner);
    }
};

template <typename N>
std::string
formatValue(N value)
{
    if constexpr (std::is_integral_v<N>)
        return std::to_string(value);
    else
        return formatDouble(value);
}

} // namespace detail

/** Member-wise equality over T's field list. */
template <typename T>
bool
fieldsEqual(const T &a, const T &b)
{
    detail::FieldsEqual<T> visitor{a, b};
    T::fields(visitor);
    return visitor.equal;
}

/** Members T's field list visits (a two-member entry counts two). */
template <typename T>
std::size_t
fieldCount()
{
    detail::FieldCount<T> visitor;
    T::fields(visitor);
    return visitor.count;
}

/**
 * Call f(path, value, domain) for every numeric leaf of `obj`, nested
 * structs and per-replica engines included. `path` is the dotted JSON
 * key ("cluster.replicas[1].tp_degree"), `value` the member (a SimTime
 * as seconds, each array element on its own). With `skipDefaults`, a
 * nested struct still at its default is skipped with its leaves.
 */
template <typename T, typename F>
void
walkDomains(const T &obj, F &&f, bool skipDefaults = false)
{
    const std::string root;
    detail::DomainWalk<T, std::remove_reference_t<F>> walk{obj, root, f,
                                                           skipDefaults};
    T::fields(walk);
}

/**
 * Append "<key> must be ... (got ...)" per leaf of `obj` outside its
 * domain. A nested struct still at its default is skipped: the presets
 * leave engine.model and engine.gpu default-constructed, meaning
 * "hardware not chosen yet", and every other struct's default lies
 * within its domains.
 */
template <typename T>
void
checkDomains(const T &obj, std::vector<std::string> *errors)
{
    walkDomains(
        obj,
        [errors](const std::string &path, auto value, const Domain &domain) {
            if (!domain.contains(value)) {
                errors->push_back(
                    domainError(path, domain, detail::formatValue(value)));
            }
        },
        true);
}

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_FIELDS_H
