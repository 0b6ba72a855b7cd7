/**
 * @file
 * Command-line flags, declared once. Every entry point (the simalpha
 * driver and its subcommands, `simalpha bench`, the table benches)
 * lists its flags in one Command, and parse() and help() both read it,
 * so the help text names exactly the flags that are accepted.
 *
 * A flag takes its value as `--name value` or `--name=value`; a switch
 * takes none. Numbers go through flagNumber (common/number), so a
 * malformed one is a ConfigError naming the flag. A flag with no help
 * text is hidden: accepted, never listed (the process-isolation
 * worker's --shard, --cells and --journal).
 */

#ifndef SIMALPHA_COMMON_FLAGS_HH
#define SIMALPHA_COMMON_FLAGS_HH

#include <functional>
#include <string>
#include <vector>

#include "common/number.hh"

namespace simalpha {
namespace flags {

struct Flag
{
    std::string name;   ///< "--jobs"
    std::string value;  ///< placeholder in the help ("<n>"); "" = switch
    std::string help;   ///< "" = hidden
    /** Takes the value ("" for a switch); throws ConfigError when it
     *  is malformed. */
    std::function<void(const std::string &value)> set;
};

/** One titled section of a command's help. */
struct Group
{
    std::string title;
    std::vector<Flag> flags;
};

struct Command
{
    std::string name;       ///< "vuln" in "unknown vuln option"; may be ""
    std::string synopsis;   ///< opens the help
    std::vector<Group> groups;
    std::string epilog = "";    ///< closes the help
};

inline Flag
text(std::string name, std::string value, std::string *out,
     std::string help)
{
    return {std::move(name), std::move(value), std::move(help),
            [out](const std::string &v) { *out = v; }};
}

/** T: std::uint64_t, int or double, read through flagNumber. */
template <class T>
Flag
number(std::string name, std::string value, T *out, std::string help)
{
    return {name, std::move(value), std::move(help),
            [name, out](const std::string &v) {
                *out = flagNumber<T>(name, v);
            }};
}

/** A switch: it sets @p *out. */
inline Flag
toggle(std::string name, bool *out, std::string help)
{
    return {std::move(name), "", std::move(help),
            [out](const std::string &) { *out = true; }};
}

/**
 * Hand argv[first..argc) to the flags of @p command in order. Returns
 * false once it has answered --help or -h with help() on stdout (the
 * caller exits 0). Throws ConfigError for an unknown flag ("unknown
 * <name> option '<arg>'"), a value missing at the end ("missing value
 * after <flag>"), a switch given `=value`, or a value its setter
 * rejects.
 */
bool parse(const Command &command, int argc, char **argv, int first = 1);

/** The help text: synopsis, every listed flag by group, epilog. */
std::string help(const Command &command);

/** One help row: @p left, then @p text filled into the help column. */
std::string row(const std::string &left, const std::string &text);

} // namespace flags
} // namespace simalpha

#endif // SIMALPHA_COMMON_FLAGS_HH
