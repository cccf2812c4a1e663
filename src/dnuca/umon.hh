/**
 * @file
 * Utility monitors (UMONs) [69, 8]: sampled auxiliary tag directories
 * that measure, per virtual cache, the miss curve the VC would see at
 * different capacity allocations.
 *
 * The UMON models a cache of `modelled capacity` lines at
 * `ways` bucket granularity: it monitors a hash-sampled ~1/sampleRate
 * slice of the access stream with per-set true-LRU tag arrays and
 * counts hits by recency position. missCurve()[k] then estimates the
 * VC's misses had it been allocated k/ways of the modelled capacity.
 */

#ifndef JUMANJI_DNUCA_UMON_HH
#define JUMANJI_DNUCA_UMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnuca/miss_curve.hh"
#include "src/sim/fastmod.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;

namespace umon_detail {

/** Murmur-style finalizer used for hash sampling and set choice. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace umon_detail

/** UMON geometry. */
struct UmonParams
{
    /** Sampled sets in the auxiliary directory. */
    std::uint32_t sets = 64;
    /** Recency positions == miss-curve buckets. */
    std::uint32_t ways = 64;
    /** Total capacity (in lines) the monitor models. */
    std::uint64_t modelledLines = 327680; // 20 MB of 64 B lines
};

/**
 * One UMON instance (one per VC).
 */
class Umon
{
  public:
    explicit Umon(const UmonParams &params);

    /**
     * Observes one LLC access; internally sampled. Inline so the
     * per-access fast path (count + hash + reject) stays call-free;
     * only the ~1/sampleRate sampled accesses take the out-of-line
     * LRU-stack update.
     */
    void access(LineAddr line)
    {
        accesses_++;
        if (!sampled(line)) return;
        recordSampled(line);
    }

    /** Accesses observed (unsampled count). */
    std::uint64_t accesses() const { return accesses_; }

    /**
     * The measured LRU miss curve, scaled back up by the sampling
     * rate: points[k] = estimated misses at k buckets of capacity,
     * over the interval since the last clear().
     */
    MissCurve missCurve() const;

    /** Lines of modelled capacity per miss-curve bucket. */
    std::uint64_t linesPerBucket() const;

    /** Resets counters (called each reconfiguration epoch). */
    void clear();

    /**
     * Scales counters by @p factor (0 < factor < 1): an exponential
     * moving average across epochs. Used instead of clear() so that
     * curves stay stable when single-epoch samples are sparse.
     */
    void decay(double factor);

    const UmonParams &params() const { return params_; }

    /** Hits by recency position (0 = MRU); clear() and decay() apply. */
    const std::vector<std::uint64_t> &hitCounters() const
    {
        return hitCounters_;
    }

    /** Registers UMON stats under @p prefix ("dnuca.umon03."). */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    bool sampled(LineAddr line) const
    {
        // Hash-sample lines at 1/sampleRate. Using the line address
        // (not the access) keeps a line's accesses consistently
        // monitored.
        std::uint64_t h = umon_detail::mix(line ^ 0x5bf03635ull);
        return rateInt_.divides(h);
    }

    /** LRU-stack update for an access that passed the sample. */
    void recordSampled(LineAddr line);

    UmonParams params_;
    double sampleRate_;
    /** sampleRate_ truncated once, for the per-access sample test. */
    FastMod rateInt_;
    /** params_.sets, for the sampled accesses' set index. */
    FastMod sets_;

    /**
     * Per-set LRU stacks of line tags, most recent first, in one flat
     * sets x ways array: set s occupies [s*ways, s*ways + depth_[s]).
     */
    std::vector<LineAddr> stacks_;
    std::vector<std::uint32_t> depth_;

    /** Hits by recency position (0 = MRU). */
    std::vector<std::uint64_t> hitCounters_;
    std::uint64_t missCounter_ = 0;
    std::uint64_t sampledAccesses_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_DNUCA_UMON_HH
