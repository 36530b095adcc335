/**
 * @file
 * Error and status reporting in the gem5 idiom: panic() for internal
 * simulator bugs, fatal() for user/configuration errors, warn() for
 * status messages that never stop the simulation.
 */

#ifndef FADE_SIM_LOGGING_HH
#define FADE_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace fade
{

namespace log_detail
{

inline void
format(std::ostringstream &os)
{
    (void)os;
}

template <typename T, typename... Rest>
void
format(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    format(os, rest...);
}

template <typename... Args>
std::string
str(const Args &...args)
{
    std::ostringstream os;
    format(os, args...);
    return os.str();
}

[[noreturn]] inline void
exitPanic(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] inline void
exitFatal(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace log_detail

/** Report an internal invariant violation (a simulator bug) and abort. */
#define panic(...)                                                         \
    ::fade::log_detail::exitPanic(::fade::log_detail::str(__VA_ARGS__),    \
                                  __FILE__, __LINE__)

/** Report an unrecoverable user/configuration error and exit(1). */
#define fatal(...)                                                         \
    ::fade::log_detail::exitFatal(::fade::log_detail::str(__VA_ARGS__),    \
                                  __FILE__, __LINE__)

/** Panic if @p cond does not hold. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            panic(__VA_ARGS__);                                            \
    } while (0)

/** Fatal if @p cond does not hold. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            fatal(__VA_ARGS__);                                            \
    } while (0)

/** Status message about possibly-degraded functionality. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::fprintf(stderr, "warn: %s\n", log_detail::str(args...).c_str());
}

} // namespace fade

#endif // FADE_SIM_LOGGING_HH
