/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic():  an internal simulator bug — something that must never happen
 *           regardless of user input; throws InvariantError whose
 *           message has no source location (or prints the location
 *           and aborts when SIMALPHA_ABORT_ON_PANIC=1 is set, for
 *           debugger use).
 * fatal():  a user error (bad configuration, invalid argument); throws
 *           ConfigError.
 * warn():   functionality that may not be modeled exactly right.
 * inform(): status messages with no connotation of incorrectness.
 *
 * Library code installs no handlers: exceptions propagate to the
 * campaign layer (per-cell containment) or to the top-level driver in
 * tools/simalpha.cc, which maps the error class to an exit code. See
 * common/error.hh for the taxonomy.
 */

#ifndef SIMALPHA_COMMON_LOGGING_HH
#define SIMALPHA_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>

namespace simalpha {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Number of warnings emitted so far (for tests). */
std::uint64_t warnCount();

/** Suppress warn()/inform() output (benches keep their tables clean). */
void setQuiet(bool quiet);

} // namespace simalpha

#define panic(...) ::simalpha::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::simalpha::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::simalpha::warnImpl(__VA_ARGS__)
#define inform(...) ::simalpha::informImpl(__VA_ARGS__)

/**
 * Assert a simulator invariant; violation is a modeling bug -> panic.
 *
 * Unlike assert(3), sim_assert is deliberately independent of NDEBUG:
 * invariant checks guard the *results* (a silently-wrong cycle count is
 * worse than a failed cell), so Release builds keep them. The
 * SimAssertStaysEnabledUnderNdebug test compiles with NDEBUG defined
 * and fails if this guarantee is ever broken.
 */
#define sim_assert(cond)                                                    \
    do {                                                                    \
        if (!(cond))                                                        \
            panic("assertion failed: %s", #cond);                           \
    } while (0)

#endif // SIMALPHA_COMMON_LOGGING_HH
