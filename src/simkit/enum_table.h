/**
 * @file
 * One {value, name} table per enum: the single source of its canonical
 * names, its accepted aliases and the option list error messages show.
 *
 * An enum opts in by declaring, in its own namespace,
 *
 *   sim::EnumTable<RouterPolicy> enumTable(RouterPolicy);
 *
 * and defining it over a static array. The first entry for a value is
 * its canonical name; later entries for the same value are aliases —
 * accepted by enumByName, left out of enumName and enumNames.
 */

#ifndef CHAMELEON_SIMKIT_ENUM_TABLE_H
#define CHAMELEON_SIMKIT_ENUM_TABLE_H

#include <cstddef>
#include <string>

namespace chameleon::sim {

/** One table row: a value and one of its names. */
template <typename Enum>
struct EnumName
{
    Enum value;
    const char *name;
};

/** A view of an enum's static name table. */
template <typename Enum>
class EnumTable
{
  public:
    template <std::size_t N>
    constexpr EnumTable(const EnumName<Enum> (&rows)[N])
        : begin_(rows), end_(rows + N)
    {
    }

    const EnumName<Enum> *begin() const { return begin_; }
    const EnumName<Enum> *end() const { return end_; }

  private:
    const EnumName<Enum> *begin_;
    const EnumName<Enum> *end_;
};

/** Canonical name of `value`; "?" for a value missing from the table. */
template <typename Enum>
const char *
enumName(Enum value)
{
    for (const auto &row : enumTable(value)) {
        if (row.value == value)
            return row.name;
    }
    return "?";
}

/** Parse a canonical name or alias; false (out untouched) if unknown. */
template <typename Enum>
bool
enumByName(const std::string &name, Enum *out)
{
    for (const auto &row : enumTable(Enum{})) {
        if (name == row.name) {
            *out = row.value;
            return true;
        }
    }
    return false;
}

/** The canonical names, comma-separated, for error messages. */
template <typename Enum>
const char *
enumNames()
{
    static const std::string joined = [] {
        std::string out;
        for (const auto &row : enumTable(Enum{})) {
            if (enumName(row.value) != row.name)
                continue; // an alias
            if (!out.empty())
                out += ", ";
            out += row.name;
        }
        return out;
    }();
    return joined.c_str();
}

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_ENUM_TABLE_H
