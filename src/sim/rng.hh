/**
 * @file
 * Deterministic, seedable random number generation (xoshiro256**).
 *
 * All simulator randomness flows through Rng so that a full experiment
 * is reproducible from (seed, config) alone.
 */

#ifndef JUMANJI_SIM_RNG_HH
#define JUMANJI_SIM_RNG_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace jumanji {

namespace rng_detail {

/*
 * -ln(v) without libm, for the exponential draws on the per-access
 * path. v = 2^k * z with z in [0.709, 1.418); z falls in one of 128
 * subintervals with centre c, and ln z = ln c + log1p(z/c - 1). The
 * subinterval holding 1.0 is centred on it exactly (c = 1), so
 * r = z - 1 is exact there and the result keeps full relative
 * precision as v -> 1. Everywhere else |ln v| >= 2^-9 and the
 * absolute error (a few 2^-53) stays below 2^-42 relative. The
 * degree-5 Taylor polynomial on |r| <= 2^-8 truncates at r^6/6.
 */

/** Bits of z's lower end; puts 1.0 at the centre of slot 74. */
inline constexpr std::uint64_t kLogOffset = 0x3fe6b00000000000ull;
inline constexpr int kLogSlotBits = 7;
inline constexpr double kLn2 = 0x1.62e42fefa39efp-1;

struct LogSlot
{
    /** 1/c, rounded. */
    double invC;
    /** -ln(invC), i.e. ln c (to a few 2^-53). */
    double logC;
};

/** ln(x) for x in [0.5, 2] by the atanh series; compile time only. */
constexpr double
seriesLog(double x)
{
    const double s = (x - 1.0) / (x + 1.0);
    const double s2 = s * s;
    double term = s;
    double sum = 0.0;
    for (int n = 1; n < 60; n += 2) {
        sum += term / n;
        term *= s2;
    }
    return 2.0 * sum;
}

constexpr std::array<LogSlot, (1u << kLogSlotBits)>
makeLogSlots()
{
    std::array<LogSlot, (1u << kLogSlotBits)> slots{};
    const int shift = 52 - kLogSlotBits;
    for (std::uint64_t i = 0; i < slots.size(); i++) {
        const double c = std::bit_cast<double>(
            kLogOffset + (i << shift) + (1ull << (shift - 1)));
        const double invC = 1.0 / c;
        slots[i] = LogSlot{invC, -seriesLog(invC)};
    }
    return slots;
}

inline constexpr std::array<LogSlot, (1u << kLogSlotBits)> kLogSlots =
    makeLogSlots();

/**
 * -ln(v) for v in [2^-53, 1] (every 1 - uniform()), relative error
 * below 2^-42.
 */
inline double
negLog(double v)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t tmp = bits - kLogOffset;
    const auto k = static_cast<double>(static_cast<std::int64_t>(tmp) >> 52);
    const std::uint64_t slot = (tmp >> (52 - kLogSlotBits)) &
                               ((1u << kLogSlotBits) - 1);
    const double z =
        std::bit_cast<double>(bits - (tmp & (0xfffull << 52)));
    const LogSlot &e = kLogSlots[slot];
    const double r = z * e.invC - 1.0;
    const double r2 = r * r;
    const double poly =
        r + r2 * (-0.5 + r * (1.0 / 3.0)) + (r2 * r2) * (-0.25 + r * 0.2);
    return -(k * kLn2 + e.logC + poly);
}

/**
 * Sets @p floor to floor(y) and returns true when y lies more than
 * @p slack from every integer, i.e. when any value within slack of y
 * has that same floor; false (floor unspecified) otherwise and for
 * y outside [0, 2^51).
 */
inline bool
clearFloor(double y, double slack, std::uint64_t &floor)
{
    floor = 0;
    if (!(y >= 0.0 && y < 0x1p51)) return false;
    // Adding 2^52 rounds y to its nearest integer n, which then sits
    // in the low mantissa bits; d = y - n is exact.
    const double t = y + 0x1p52;
    const double d = y - (t - 0x1p52);
    floor = std::bit_cast<std::uint64_t>(t) -
            std::bit_cast<std::uint64_t>(0x1p52) - (d < 0.0 ? 1 : 0);
    return std::abs(d) > slack;
}

/**
 * floor(-mean * log1p(-u)) from the libm-free negLog, and whether
 * that floor is certain: true when the approximation lies more than
 * 1e-9 * (1 + y) from every integer. negLog is within 2^-42 and
 * log1p within an ulp, so the libm value then has the same floor.
 * @pre u is a uniform() value: a multiple of 2^-53 in [0, 1).
 */
inline bool
approxFloorExponential(double u, double mean, std::uint64_t &floor)
{
    // 1 - u is exact: u is a multiple of 2^-53 below 1.
    const double y = mean * negLog(1.0 - u);
    return clearFloor(y, 1e-9 * (1.0 + y), floor);
}

/**
 * static_cast<uint64_t>(-mean * log1p(-u)), bit for bit: the fast
 * floor when it is certain, else the libm expression itself.
 */
inline std::uint64_t
floorExponential(double u, double mean)
{
    std::uint64_t floor;
    if (approxFloorExponential(u, mean, floor)) return floor;
    return static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

} // namespace rng_detail

/**
 * xoshiro256** generator. Small, fast, high quality; not
 * cryptographic (we only drive workloads and sampling with it).
 */
class Rng
{
  public:
    /**
     * Seeds the generator via splitmix64 expansion of @p seed.
     *
     * Deliberately no default argument: every stream must trace back
     * to an explicit seed (ultimately the config's), or reproducibility
     * from (seed, config) silently breaks.
     */
    explicit Rng(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free-enough reduction.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Exponential variate with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        if (u >= 1.0) u = 0.999999999;
        return -mean * std::log1p(-u);
    }

    /**
     * static_cast<uint64_t>(exponential(mean)), bit for bit, from the
     * same single uniform() draw; log1p runs only on the rare draws
     * whose floor the libm-free path cannot certify.
     */
    std::uint64_t
    exponentialFloor(double mean)
    {
        double u = uniform();
        if (u >= 1.0) u = 0.999999999;
        return rng_detail::floorExponential(u, mean);
    }

    /** True with probability @p p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Forks a child generator whose stream is decorrelated from the
     * parent's; used to give each app / component its own stream.
     */
    Rng
    fork()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ull);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace jumanji

#endif // JUMANJI_SIM_RNG_HH
