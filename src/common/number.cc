#include "common/number.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "common/error.hh"

namespace simalpha {

namespace {

template <class T>
bool
parseWhole(const std::string &text, T *out)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    *out = value;
    return true;
}

} // namespace

bool
parseNumber(const std::string &text, std::uint64_t *out)
{
    return parseWhole(text, out);
}

bool
parseNumber(const std::string &text, int *out)
{
    return parseWhole(text, out);
}

bool
parseNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace((unsigned char)text[0]) ||
        text.find_first_of("xX") != std::string::npos ||
        end != text.c_str() + text.size() || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

template <class T>
T
flagNumber(const std::string &flag, const std::string &text)
{
    T value{};
    if (!parseNumber(text, &value))
        throw ConfigError(flag + ": '" + text + "' is not a " +
                          (std::is_same_v<T, double>
                               ? "finite decimal number"
                               : "whole number in range"));
    return value;
}

template std::uint64_t flagNumber(const std::string &,
                                  const std::string &);
template int flagNumber(const std::string &, const std::string &);
template double flagNumber(const std::string &, const std::string &);

} // namespace simalpha
