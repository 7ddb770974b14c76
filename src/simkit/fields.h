/**
 * @file
 * Field lists: each spec struct names its members once, with their
 * JSON keys, and visitors walk that one list.
 *
 * A struct opts in with a static member template:
 *
 *   template <typename V>
 *   static void fields(V &v)
 *   {
 *       v.field("tp_degree", &EngineConfig::tpDegree);
 *       v.seconds("mem_sample_period_s", &EngineConfig::memSamplePeriod);
 *   }
 *
 * Member pointers read const and non-const objects alike and pair up
 * two objects, so the one list drives the spec JSON printer and parser
 * (chameleon/spec_json.cc) as well as fieldsEqual below. A visitor
 * implements every entry kind a list may use:
 *
 *   field(key, &T::m)         one member, handled by its C++ type;
 *   field(key, &T::a, &T::b)  two members behind one JSON key;
 *   seconds(key, &T::m)       a SimTime, written as seconds;
 *   seed(key, &T::m)          a uint64 over its full range (RNG seeds).
 */

#ifndef CHAMELEON_SIMKIT_FIELDS_H
#define CHAMELEON_SIMKIT_FIELDS_H

#include <cstddef>

namespace chameleon::sim {

namespace detail {

template <typename T>
struct FieldsEqual
{
    const T &a;
    const T &b;
    bool equal = true;

    template <typename... M>
    void field(const char *, M T::*...members)
    {
        equal = equal && ((a.*members == b.*members) && ...);
    }
    template <typename M>
    void seconds(const char *key, M T::*member)
    {
        field(key, member);
    }
    template <typename M>
    void seed(const char *key, M T::*member)
    {
        field(key, member);
    }
};

template <typename T>
struct FieldCount
{
    std::size_t count = 0;

    template <typename... M>
    void field(const char *, M T::*...)
    {
        count += sizeof...(M);
    }
    template <typename M>
    void seconds(const char *key, M T::*member)
    {
        field(key, member);
    }
    template <typename M>
    void seed(const char *key, M T::*member)
    {
        field(key, member);
    }
};

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

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_FIELDS_H
