/**
 * @file
 * Error/status reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for user/configuration errors,
 * warn()/inform() for status.
 */

#ifndef JUMANJI_SIM_LOGGING_HH
#define JUMANJI_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace jumanji {

/** Thrown by fatal(): the configuration is invalid, not a bug. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Reports an unrecoverable user/configuration error. */
[[noreturn]] void fatal(const std::string &msg);

/** Reports an internal simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Prints a warning to stderr. */
void warn(const std::string &msg);

/** Prints a status message to stderr. */
void inform(const std::string &msg);

/** Globally silences warn()/inform() (used by tests). */
void setQuiet(bool quiet);

/**
 * Parses @p text as a whole decimal number in [@p lo, @p hi]: digits
 * only (no sign, blank or trailing junk) and no silent wrap. Returns
 * false, leaving @p out untouched, on anything else.
 */
bool parseWholeDecimal(const std::string &text, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t &out);

/**
 * Integer environment knob: $@p name when it passes
 * parseWholeDecimal in [@p lo, @p hi], else @p fallback. A
 * set-but-invalid value (empty, junk, out of range) warns once per
 * variable per process and falls back, so a typo cannot silently
 * pose as a deliberate setting.
 */
std::uint64_t envCount(const char *name, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t fallback);

} // namespace jumanji

#endif // JUMANJI_SIM_LOGGING_HH
