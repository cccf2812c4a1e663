#include "src/cache/cache_array.hh"

#include <bit>
#include <limits>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/** Mixes line address bits so consecutive lines spread across sets. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Owners compare by every field: two VCs of one app are two owners. */
bool
sameOwner(const AccessOwner &a, const AccessOwner &b)
{
    return a.app == b.app && a.vc == b.vc && a.vm == b.vm &&
           a.latencyCritical == b.latencyCritical;
}

/** App ids below this get an O(1) intern hint; others scan. */
constexpr std::size_t kMaxHintedApps = 4096;

} // namespace

CacheArray::CacheArray(std::uint32_t sets, std::uint32_t ways,
                       ReplKind repl, std::uint64_t seed)
    : sets_(sets),
      ways_(ways),
      tags_(static_cast<std::size_t>(sets) * ways, 0),
      validBits_(sets, 0),
      lineOwner_(static_cast<std::size_t>(sets) * ways, 0),
      repl_(ReplPolicy::create(repl, sets, ways, seed)),
      fullMask_(WayMask::all(ways))
{
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("CacheArray: sets must be a nonzero power of two");
    if (ways == 0 || ways > 64)
        fatal("CacheArray: ways must be in [1, 64]");
}

std::uint32_t
CacheArray::setIndex(LineAddr line) const
{
    return static_cast<std::uint32_t>(mixBits(line) & (sets_ - 1));
}

CacheArray::OwnerIndex
CacheArray::intern(const AccessOwner &owner)
{
    // Each app almost always fills as one owner, so the app's last
    // interned slot answers nearly every lookup without a scan.
    const auto hintSlot = static_cast<std::size_t>(
        static_cast<std::int64_t>(owner.app) + 1);
    const bool hinted = hintSlot < kMaxHintedApps;
    if (hinted && hintSlot < appHint_.size()) {
        const OwnerIndex h = appHint_[hintSlot];
        if (h < owners_.size() && sameOwner(owners_[h].owner, owner))
            return h;
    }
    std::size_t idx = 0;
    while (idx < owners_.size() && !sameOwner(owners_[idx].owner, owner))
        idx++;
    if (idx == owners_.size()) {
        if (idx > std::numeric_limits<OwnerIndex>::max())
            fatal("CacheArray: more than 65536 distinct line owners");
        std::size_t pair = 0;
        while (pair < vmApps_.size() && (vmApps_[pair].vm != owner.vm ||
                                         vmApps_[pair].app != owner.app))
            pair++;
        if (pair == vmApps_.size())
            vmApps_.push_back(VmAppPair{owner.vm, owner.app});
        owners_.push_back(
            OwnerSlot{owner, 0, static_cast<std::uint32_t>(pair)});
    }
    if (hinted) {
        if (hintSlot >= appHint_.size())
            appHint_.resize(hintSlot + 1,
                            std::numeric_limits<OwnerIndex>::max());
        appHint_[hintSlot] = static_cast<OwnerIndex>(idx);
    }
    return static_cast<OwnerIndex>(idx);
}

void
CacheArray::accountFill(OwnerIndex idx)
{
    JUMANJI_ASSERT(validCount_ < numLines(),
                   "fill would exceed array capacity");
    validCount_++;
    OwnerSlot &slot = owners_[idx];
    if (slot.lines++ != 0) return;
    // The owner went from 0 to 1 line: its (vm, app) pair may have
    // just become live.
    VmAppPair &pair = vmApps_[slot.pair];
    if (pair.liveOwners++ == 0) {
        vmLiveApps_[pair.vm]++;
        vmAppTotal_++;
    }
}

void
CacheArray::accountDrop(OwnerIndex idx)
{
    JUMANJI_ASSERT(validCount_ > 0, "drop from an empty array");
    OwnerSlot &slot = owners_[idx];
    JUMANJI_ASSERT(slot.lines > 0, "owner occupancy underflow");
    validCount_--;
    if (--slot.lines != 0) return;
    VmAppPair &pair = vmApps_[slot.pair];
    if (--pair.liveOwners == 0) {
        vmLiveApps_[pair.vm]--;
        vmAppTotal_--;
    }
}

void
CacheArray::checkOccupancyInvariant() const
{
#if JUMANJI_CHECKS_ACTIVE
    std::uint64_t valid = 0;
    std::vector<std::uint64_t> byOwner(owners_.size(), 0);
    for (std::uint32_t s = 0; s < sets_; s++) {
        for (std::uint64_t bits = validBits_[s]; bits != 0;
             bits &= bits - 1) {
            auto w = static_cast<std::uint32_t>(std::countr_zero(bits));
            const OwnerIndex idx =
                lineOwner_[static_cast<std::size_t>(s) * ways_ + w];
            JUMANJI_INVARIANT(idx < owners_.size(),
                              "line owner index outside the owner table");
            valid++;
            byOwner[idx]++;
        }
    }
    JUMANJI_INVARIANT(valid == validCount_,
                      "validCount_ disagrees with the line array");
    std::vector<std::uint32_t> pairLive(vmApps_.size(), 0);
    std::uint64_t ownerSum = 0;
    for (std::size_t i = 0; i < owners_.size(); i++) {
        JUMANJI_INVARIANT(owners_[i].lines == byOwner[i],
                          "per-owner occupancy accounting drifted");
        ownerSum += owners_[i].lines;
        if (owners_[i].lines > 0) pairLive[owners_[i].pair]++;
    }
    JUMANJI_INVARIANT(ownerSum == validCount_,
                      "occupancy sums disagree with validCount_");
    SmallIdMap<VmId, std::uint32_t> liveApps;
    std::uint32_t livePairs = 0;
    for (std::size_t p = 0; p < vmApps_.size(); p++) {
        JUMANJI_INVARIANT(vmApps_[p].liveOwners == pairLive[p],
                          "(vm, app) live-owner count drifted");
        if (pairLive[p] == 0) continue;
        liveApps[vmApps_[p].vm]++;
        livePairs++;
    }
    JUMANJI_INVARIANT(livePairs == vmAppTotal_,
                      "vulnerability tally disagrees with the lines");
    for (const auto &[vm, count] : vmLiveApps_) {
        const std::uint32_t *have = liveApps.lookup(vm);
        JUMANJI_INVARIANT(count == (have == nullptr ? 0 : *have),
                          "per-VM distinct-app tally drifted");
    }
#endif
}

ArrayAccessResult
CacheArray::access(LineAddr line, const AccessOwner &owner)
{
    ArrayAccessResult result;
    std::uint32_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const LineAddr *tagRow = tags_.data() + base;

    // Lookup: CAT semantics, hits may land in any way. Scanning valid
    // ways in ascending order via the bitmask matches the original
    // way-by-way walk.
    for (std::uint64_t bits = validBits_[set]; bits != 0;
         bits &= bits - 1) {
        auto w = static_cast<std::uint32_t>(std::countr_zero(bits));
        if (tagRow[w] == line) {
            repl_->onHit(set, w);
            result.hit = true;
            return result;
        }
    }

    // Miss: fill within the owner's way mask (resolved once).
    const WayMask &mask = *maskFor(owner.vc);
    if (mask.empty()) {
        // No fill rights: treat as an uncached access (still a miss).
        return result;
    }

    // Prefer the lowest invalid allowed way (one bit-scan).
    std::uint32_t victim;
    std::uint64_t invalidAllowed = mask.bits() & ~validBits_[set] &
                                   fullMask_.bits();
    if (invalidAllowed != 0)
        victim = static_cast<std::uint32_t>(
            std::countr_zero(invalidAllowed));
    else
        victim = repl_->victimWay(set, mask);
    JUMANJI_ASSERT(victim < ways_, "victim way out of range");
    JUMANJI_ASSERT(mask.contains(victim),
                   "replacement chose a victim outside the way mask");

    OwnerIndex &vOwner = lineOwner_[base + victim];
    if (validBits_[set] & (1ull << victim)) {
        result.evicted = true;
        result.evictedOwner = owners_[vOwner].owner;
        result.evictedLine = tagRow[victim];
        accountDrop(vOwner);
    }
    tags_[base + victim] = line;
    validBits_[set] |= 1ull << victim;
    vOwner = intern(owner);
    accountFill(vOwner);
    repl_->onFill(set, victim);
    return result;
}

bool
CacheArray::insert(LineAddr line, const AccessOwner &owner)
{
    std::uint32_t set = setIndex(line);
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    const LineAddr *tagRow = tags_.data() + base;
    for (std::uint64_t bits = validBits_[set]; bits != 0;
         bits &= bits - 1) {
        auto w = static_cast<std::uint32_t>(std::countr_zero(bits));
        if (tagRow[w] == line) return true;
    }
    const WayMask &mask = *maskFor(owner.vc);
    if (mask.empty()) return false;

    std::uint32_t victim;
    std::uint64_t invalidAllowed = mask.bits() & ~validBits_[set] &
                                   fullMask_.bits();
    if (invalidAllowed != 0)
        victim = static_cast<std::uint32_t>(
            std::countr_zero(invalidAllowed));
    else
        victim = repl_->victimWay(set, mask);
    JUMANJI_ASSERT(victim < ways_ && mask.contains(victim),
                   "migration fill outside the way mask");

    OwnerIndex &vOwner = lineOwner_[base + victim];
    if (validBits_[set] & (1ull << victim)) accountDrop(vOwner);
    tags_[base + victim] = line;
    validBits_[set] |= 1ull << victim;
    vOwner = intern(owner);
    accountFill(vOwner);
    repl_->onFill(set, victim);
    return true;
}

bool
CacheArray::contains(LineAddr line) const
{
    std::uint32_t set = setIndex(line);
    const LineAddr *tagRow =
        tags_.data() + static_cast<std::size_t>(set) * ways_;
    for (std::uint64_t bits = validBits_[set]; bits != 0;
         bits &= bits - 1) {
        auto w = static_cast<std::uint32_t>(std::countr_zero(bits));
        if (tagRow[w] == line) return true;
    }
    return false;
}

void
CacheArray::setWayMask(VcId vc, const WayMask &mask)
{
    masks_[vc] = mask;
}

WayMask
CacheArray::wayMaskFor(VcId vc) const
{
    return *maskFor(vc);
}

void
CacheArray::clearWayMasks()
{
    masks_.clear();
}

std::uint64_t
CacheArray::invalidateVc(VcId vc)
{
    return invalidateIf([vc](LineAddr, const AccessOwner &o) {
        return o.vc == vc;
    });
}

std::uint64_t
CacheArray::invalidateAll()
{
    return invalidateIf([](LineAddr, const AccessOwner &) { return true; });
}

std::uint64_t
CacheArray::occupancyOfApp(AppId app) const
{
    std::uint64_t lines = 0;
    for (const OwnerSlot &slot : owners_)
        if (slot.owner.app == app) lines += slot.lines;
    return lines;
}

std::uint64_t
CacheArray::occupancyOfVc(VcId vc) const
{
    std::uint64_t lines = 0;
    for (const OwnerSlot &slot : owners_)
        if (slot.owner.vc == vc) lines += slot.lines;
    return lines;
}

std::uint32_t
CacheArray::appsFromOtherVms(VmId exceptVm) const
{
    // vmAppTotal_ tracks the distinct (vm, app) pairs with >0 lines,
    // so the per-access vulnerability probe is a subtraction instead
    // of a walk over the owner table.
    const std::uint32_t *own = vmLiveApps_.lookup(exceptVm);
    return vmAppTotal_ - (own == nullptr ? 0 : *own);
}

} // namespace jumanji
