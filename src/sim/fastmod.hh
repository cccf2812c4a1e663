/**
 * @file
 * Remainder and divisibility by a run-time constant without a divide
 * instruction (Lemire, Kaser & Kurz, "Faster Remainder by Direct
 * Computation", 2019).
 *
 * With c = ceil(2^128 / d), n % d = floor((c * n mod 2^128) * d /
 * 2^128), and d divides n iff c * n mod 2^128 < c. Both identities
 * hold for every 64-bit n when d < 2^32 (the paper's F >= N + L with
 * F = 128, N = 64, L = 32), so the results are exactly those of `%`.
 */

#ifndef JUMANJI_SIM_FASTMOD_HH
#define JUMANJI_SIM_FASTMOD_HH

#include <cstdint>

#include "src/sim/logging.hh"

namespace jumanji {

/** n % d and n % d == 0 for a divisor fixed at construction. */
class FastMod
{
  public:
    /** @pre 1 <= d < 2^32 (fatal otherwise). */
    explicit FastMod(std::uint64_t d)
        : d_(d),
          // floor((2^128 - 1) / d) + 1 == ceil(2^128 / d) mod 2^128;
          // d == 1 wraps to 0, which both formulas handle.
          c_(~static_cast<__uint128_t>(0) / (d == 0 ? 1 : d) + 1)
    {
        if (d == 0 || d > 0xffffffffull)
            fatal("FastMod: divisor must be in [1, 2^32)");
    }

    /** n % d. */
    std::uint64_t
    mod(std::uint64_t n) const
    {
        const __uint128_t low = c_ * n;
        const auto lo = static_cast<std::uint64_t>(low);
        const auto hi = static_cast<std::uint64_t>(low >> 64);
        // floor(low * d / 2^128), with low * d split at bit 64.
        const __uint128_t mid =
            static_cast<__uint128_t>(hi) * d_ +
            ((static_cast<__uint128_t>(lo) * d_) >> 64);
        return static_cast<std::uint64_t>(mid >> 64);
    }

    /** n % d == 0. */
    bool divides(std::uint64_t n) const { return c_ * n <= c_ - 1; }

  private:
    std::uint64_t d_;
    __uint128_t c_;
};

} // namespace jumanji

#endif // JUMANJI_SIM_FASTMOD_HH
