#include "simkit/fields.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace chameleon::sim {

std::string
Domain::describe() const
{
    if (std::isinf(lo))
        return "finite";
    const std::string low = formatDouble(lo);
    if (powerOfTwo)
        return "a power of two within [" + low + ", " + formatDouble(hi) +
               "]";
    if (std::isinf(hi))
        return (excludeLo ? "> " : ">= ") + low;
    return (excludeLo ? "within (" : "within [") + low + ", " +
           formatDouble(hi) + "]";
}

std::string
formatDouble(double value)
{
    char buf[32];
    for (const int digits : {6, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

std::string
domainError(const std::string &path, const Domain &domain,
            const std::string &got)
{
    return path + " must be " + domain.describe() + " (got " + got + ")";
}

} // namespace chameleon::sim
