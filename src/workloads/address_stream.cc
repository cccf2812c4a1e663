#include "src/workloads/address_stream.hh"

#include <cmath>

#include "src/sim/logging.hh"

namespace jumanji {

AddressStream::AddressStream(LineAddr base, std::vector<WorkingSet> sets)
    : base_(base),
      sets_(std::move(sets))
{
    if (sets_.empty()) fatal("AddressStream: need at least one working set");

    LineAddr offset = 0;
    for (const auto &ws : sets_) {
        offsets_.push_back(offset);
        if (!ws.streaming) {
            offset += ws.lines;
            footprint_ += ws.lines;
        }
        totalWeight_ += ws.weight;
        cumWeight_.push_back(totalWeight_);
    }
    if (totalWeight_ <= 0.0)
        fatal("AddressStream: total working-set weight must be positive");
    // Streaming region lives above all reusable sets.
    streamCursor_ = offset;
}

LineAddr
AddressStream::draw(Rng &rng)
{
    double pick = rng.uniform() * totalWeight_;
    std::size_t idx = 0;
    while (idx + 1 < cumWeight_.size() && pick >= cumWeight_[idx]) idx++;

    const WorkingSet &ws = sets_[idx];
    if (ws.streaming) {
        // Monotonically advancing, never-reused addresses.
        return base_ + streamCursor_++;
    }
    if (ws.lines == 0)
        return base_ + offsets_[idx];
    if (ws.skew <= 0.0)
        return base_ + offsets_[idx] + rng.below(ws.lines);
    return base_ + offsets_[idx] +
           hotFrontPosition(ws.lines, 1.0 + ws.skew, rng.uniform());
}

std::uint64_t
hotFrontPosition(std::uint64_t lines, double exponent, double u)
{
    const auto n = static_cast<double>(lines);
    if (exponent == 2.0) {
        // u^2 by one multiply: u*u and pow(u, 2) differ by at most an
        // ulp (they do on ~0.09% of draws), so x is within a few ulps
        // of the pow product and has its floor whenever it lies more
        // than x * 2^-40 from an integer. Otherwise pow decides.
        const double x = n * (u * u);
        std::uint64_t pos;
        if (rng_detail::clearFloor(x, x * 0x1p-40, pos))
            return pos < lines ? pos : lines - 1;
    }
    const auto pos = static_cast<std::uint64_t>(n * std::pow(u, exponent));
    return pos < lines ? pos : lines - 1;
}

} // namespace jumanji
