#include "src/sim/logging.hh"

#include <cctype>
#include <cerrno>
#include <vector>

namespace jumanji {

namespace {
bool quiet = false;
} // namespace

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

void
warn(const std::string &msg)
{
    if (!quiet) std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    if (!quiet) std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuiet(bool q)
{
    quiet = q;
}

bool
parseWholeDecimal(const std::string &text, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t &out)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

std::uint64_t
envCount(const char *name, std::uint64_t lo, std::uint64_t hi,
         std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr) return fallback;
    std::uint64_t v = fallback;
    if (parseWholeDecimal(env, lo, hi, v)) return v;
    // Env knobs are read on the main thread before any worker starts.
    static std::vector<std::string> warned;
    for (const std::string &w : warned)
        if (w == name) return fallback;
    warned.emplace_back(name);
    warn(std::string(name) + "=\"" + env +
         "\" is not a whole number in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]; using " + std::to_string(fallback));
    return fallback;
}

} // namespace jumanji
