#include "common/flags.hh"

#include <cstdio>
#include <sstream>

#include "common/error.hh"

namespace simalpha {
namespace flags {

constexpr std::size_t kHelpColumn = 22;
constexpr std::size_t kWidth = 78;

bool
parse(const Command &command, int argc, char **argv, int first)
{
    for (int i = first; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help(command).c_str(), stdout);
            return false;
        }
        const std::size_t eq =
            arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
        const std::string name = arg.substr(0, eq);
        const Flag *flag = nullptr;
        for (const Group &group : command.groups)
            for (const Flag &f : group.flags)
                if (f.name == name)
                    flag = &f;
        if (!flag)
            throw ConfigError("unknown " + command.name +
                              (command.name.empty() ? "" : " ") +
                              "option '" + arg + "'");
        if (flag->value.empty() && eq != std::string::npos)
            throw ConfigError(flag->name + " takes no value");
        if (flag->value.empty())
            flag->set("");
        else if (eq != std::string::npos)
            flag->set(arg.substr(eq + 1));
        else if (i + 1 < argc)
            flag->set(argv[++i]);
        else
            throw ConfigError("missing value after " + flag->name);
    }
    return true;
}

std::string
row(const std::string &left, const std::string &text)
{
    std::string out, line = left;
    if (line.size() + 2 > kHelpColumn) {
        out = line + "\n";
        line.clear();
    }
    line.resize(kHelpColumn, ' ');
    std::istringstream words(text);
    for (std::string word; words >> word;) {
        if (line.size() > kHelpColumn &&
            line.size() + 1 + word.size() > kWidth) {
            out += line + "\n";
            line.assign(kHelpColumn, ' ');
        }
        if (line.size() > kHelpColumn)
            line += ' ';
        line += word;
    }
    return out + line + "\n";
}

std::string
help(const Command &command)
{
    std::string out = command.synopsis;
    for (const Group &group : command.groups) {
        out += "\n" + group.title + ":\n";
        for (const Flag &flag : group.flags)
            if (!flag.help.empty())
                out += row("  " + flag.name +
                               (flag.value.empty() ? "" : " " + flag.value),
                           flag.help);
    }
    return out + command.epilog;
}

} // namespace flags
} // namespace simalpha
