/**
 * @file
 * Synthetic LLC address-stream generation.
 *
 * An AddressStream draws lines from a mixture of working sets; each
 * working set is a contiguous range of line addresses accessed
 * uniformly. The resulting LLC miss curve is a stack of plateaus at
 * the cumulative working-set sizes — the classic knee-shaped curves
 * of SPEC applications. A working set with `streaming = true` never
 * reuses lines, modelling compulsory-miss traffic (e.g. libquantum).
 */

#ifndef JUMANJI_WORKLOADS_ADDRESS_STREAM_HH
#define JUMANJI_WORKLOADS_ADDRESS_STREAM_HH

#include <cstdint>
#include <vector>

#include "src/sim/rng.hh"
#include "src/sim/types.hh"

namespace jumanji {

/** One component of a mixture-of-working-sets stream. */
struct WorkingSet
{
    /** Size in cache lines (ignored when streaming). */
    std::uint64_t lines = 0;
    /** Relative probability of drawing from this set. */
    double weight = 1.0;
    /** Never reuse: a sequential compulsory-miss stream. */
    bool streaming = false;
    /**
     * Intra-set hotness: positions are drawn as floor(N * u^(1+skew))
     * for uniform u. skew = 0 is uniform (a linear LLC miss curve);
     * skew = 1 makes the front of the set quadratically hotter,
     * yielding the steep-then-flat miss curves real SPEC benchmarks
     * exhibit (hit rate ~ sqrt(C/N) under LRU).
     */
    double skew = 0.0;
};

/**
 * Draws line addresses from a working-set mixture. Each app instance
 * must use a distinct @p base so address spaces never collide.
 */
class AddressStream
{
  public:
    AddressStream(LineAddr base, std::vector<WorkingSet> sets);

    /** Next line address. */
    LineAddr draw(Rng &rng);

    /** Total reusable footprint, in lines. */
    std::uint64_t footprintLines() const { return footprint_; }

    const std::vector<WorkingSet> &sets() const { return sets_; }

  private:
    LineAddr base_;
    std::vector<WorkingSet> sets_;
    std::vector<double> cumWeight_;
    std::vector<LineAddr> offsets_;
    double totalWeight_ = 0.0;
    std::uint64_t footprint_ = 0;
    LineAddr streamCursor_ = 0;
};

/**
 * The hot-front position floor(@p lines * @p u ^ @p exponent),
 * clamped to lines - 1, exactly as the pow expression computes it;
 * exponent 2 (skew 1) skips pow whenever the result is certain.
 * @pre lines > 0, 0 <= u < 1.
 */
std::uint64_t hotFrontPosition(std::uint64_t lines, double exponent,
                               double u);

/** Returns a per-app address-space base that cannot collide. */
inline LineAddr
appAddressBase(AppId app)
{
    return (static_cast<LineAddr>(app) + 1) << 40;
}

} // namespace jumanji

#endif // JUMANJI_WORKLOADS_ADDRESS_STREAM_HH
