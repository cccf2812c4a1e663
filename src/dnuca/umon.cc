#include "src/dnuca/umon.hh"

#include <algorithm>
#include <cstring>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

Umon::Umon(const UmonParams &params)
    : params_(params),
      stacks_(static_cast<std::size_t>(params.sets) * params.ways, 0),
      depth_(params.sets, 0),
      hitCounters_(params.ways, 0)
{
    if (params.sets == 0 || params.ways == 0)
        fatal("Umon: sets and ways must be nonzero");
    // The auxiliary directory holds sets*ways tags modelling
    // modelledLines of capacity, so it samples at that ratio.
    std::uint64_t tags = static_cast<std::uint64_t>(params.sets) *
                         params.ways;
    sampleRate_ = static_cast<double>(params.modelledLines) /
                  static_cast<double>(std::max<std::uint64_t>(1, tags));
    if (sampleRate_ < 1.0) sampleRate_ = 1.0;
    rateInt_ = static_cast<std::uint64_t>(sampleRate_);
}

void
Umon::recordSampled(LineAddr line)
{
    sampledAccesses_++;

    auto set = static_cast<std::uint32_t>(umon_detail::mix(line) %
                                          params_.sets);
    LineAddr *stack =
        stacks_.data() + static_cast<std::size_t>(set) * params_.ways;
    std::uint32_t &depth = depth_[set];

    std::uint32_t pos = 0;
    while (pos < depth && stack[pos] != line) pos++;
    if (pos < depth) {
        JUMANJI_ASSERT(pos < hitCounters_.size(),
                       "recency position beyond UMON ways");
        hitCounters_[pos]++;
    } else {
        missCounter_++;
        // Insert at MRU; a full stack drops its LRU tag.
        if (depth < params_.ways) depth++;
        pos = depth - 1;
    }
    // Move-to-front: shift the pos more-recent tags down one slot.
    std::memmove(stack + 1, stack, pos * sizeof(LineAddr));
    stack[0] = line;
    JUMANJI_INVARIANT(depth <= params_.ways,
                      "UMON LRU stack outgrew its associativity");
    JUMANJI_INVARIANT(sampledAccesses_ <= accesses_,
                      "sampled more accesses than were observed");
}

MissCurve
Umon::missCurve() const
{
    // misses(k buckets) = cold/capacity misses beyond position k:
    // missCounter_ + hits at recency positions >= k.
    std::vector<double> pts(params_.ways + 1);
    double tail = static_cast<double>(missCounter_);
    pts[params_.ways] = tail;
    for (std::int64_t k = params_.ways - 1; k >= 0; k--) {
        tail += static_cast<double>(hitCounters_[k]);
        pts[k] = tail;
    }
    for (double &p : pts) p *= sampleRate_;
    return MissCurve(std::move(pts));
}

std::uint64_t
Umon::linesPerBucket() const
{
    return std::max<std::uint64_t>(1, params_.modelledLines / params_.ways);
}

void
Umon::decay(double factor)
{
    for (auto &h : hitCounters_)
        h = static_cast<std::uint64_t>(static_cast<double>(h) * factor);
    missCounter_ = static_cast<std::uint64_t>(
        static_cast<double>(missCounter_) * factor);
    sampledAccesses_ = static_cast<std::uint64_t>(
        static_cast<double>(sampledAccesses_) * factor);
    accesses_ = static_cast<std::uint64_t>(
        static_cast<double>(accesses_) * factor);
}

void
Umon::registerStats(StatRegistry &reg, const std::string &prefix)
{
    // Counters are decayed/cleared each epoch, so they read as
    // gauges: "activity this epoch", not monotone totals.
    reg.addGauge(prefix + "accesses", "accesses observed this epoch",
                 [this] { return static_cast<double>(accesses_); });
    reg.addGauge(prefix + "sampledAccesses",
                 "accesses past the hash sampler this epoch", [this] {
                     return static_cast<double>(sampledAccesses_);
                 });
    reg.addGauge(prefix + "sampledMisses",
                 "misses in the auxiliary directory this epoch",
                 [this] { return static_cast<double>(missCounter_); });
}

void
Umon::clear()
{
    std::fill(hitCounters_.begin(), hitCounters_.end(), 0);
    missCounter_ = 0;
    sampledAccesses_ = 0;
    accesses_ = 0;
    // Keep stack contents: the working set survives across epochs.
}

} // namespace jumanji
