#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/error.hh"

namespace simalpha {

namespace {

std::atomic<std::uint64_t> warn_counter{0};
std::atomic<bool> quiet_mode{false};

void
vreport(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n < 0)
        return fmt;
    std::string out(std::size_t(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

bool
abortOnPanic()
{
    const char *env = std::getenv("SIMALPHA_ABORT_ON_PANIC");
    return env && env[0] == '1' && env[1] == '\0';
}

} // namespace

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vformat(fmt, args);
    va_end(args);

    if (abortOnPanic()) {
        // Debugger mode: stop at the site with the stack intact.
        std::fprintf(stderr, "panic: %s:%d: %s\n", file, line,
                     message.c_str());
        std::abort();
    }
    // The message carries no source location: it reaches cell errors,
    // journals and store entries, which must be the same bytes in
    // every checkout and after any edit that moves a line.
    throw InvariantError(message);
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vformat(fmt, args);
    va_end(args);
    // User errors carry no source location: the message is the
    // diagnosis, and the top-level handler owns presentation.
    (void)file;
    (void)line;
    throw ConfigError(message);
}

void
warnImpl(const char *fmt, ...)
{
    warn_counter.fetch_add(1, std::memory_order_relaxed);
    if (quiet_mode.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

std::uint64_t
warnCount()
{
    return warn_counter.load(std::memory_order_relaxed);
}

void
setQuiet(bool quiet)
{
    quiet_mode.store(quiet, std::memory_order_relaxed);
}

} // namespace simalpha
