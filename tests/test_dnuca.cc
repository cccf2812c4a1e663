/**
 * @file
 * Unit tests for the D-NUCA substrate: miss curves, UMONs, placement
 * descriptors, and the VTB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/dnuca/miss_curve.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

// ---------------------------------------------------------- MissCurve

TEST(MissCurve, EnforcesMonotonicity)
{
    MissCurve curve({100, 120, 50, 60});
    EXPECT_DOUBLE_EQ(curve.at(0), 100);
    EXPECT_DOUBLE_EQ(curve.at(1), 100); // clamped down
    EXPECT_DOUBLE_EQ(curve.at(2), 50);
    EXPECT_DOUBLE_EQ(curve.at(3), 50);
}

TEST(MissCurve, AtClampsOutOfRange)
{
    MissCurve curve({10, 5, 1});
    EXPECT_DOUBLE_EQ(curve.at(100), 1);
    EXPECT_DOUBLE_EQ(MissCurve().at(3), 0.0);
}

TEST(MissCurve, Interpolation)
{
    MissCurve curve({100, 50, 0});
    EXPECT_DOUBLE_EQ(curve.interpolate(0.5), 75);
    EXPECT_DOUBLE_EQ(curve.interpolate(1.5), 25);
    EXPECT_DOUBLE_EQ(curve.interpolate(-1), 100);
    EXPECT_DOUBLE_EQ(curve.interpolate(9), 0);
}

TEST(MissCurve, ConvexHullRemovesCliff)
{
    // A cliff at 4: flat then a drop. The hull is the straight line.
    MissCurve curve({100, 100, 100, 100, 0});
    MissCurve hull = curve.convexHull();
    EXPECT_DOUBLE_EQ(hull.at(0), 100);
    EXPECT_DOUBLE_EQ(hull.at(2), 50);
    EXPECT_DOUBLE_EQ(hull.at(4), 0);
}

TEST(MissCurve, ConvexHullBelowOriginal)
{
    Rng rng(5);
    std::vector<double> pts(33);
    double v = 10000;
    for (auto &p : pts) {
        p = v;
        v -= static_cast<double>(rng.below(500));
        if (v < 0) v = 0;
    }
    MissCurve curve(pts);
    MissCurve hull = curve.convexHull();
    for (std::size_t k = 0; k <= curve.buckets(); k++) {
        EXPECT_LE(hull.at(k), curve.at(k) + 1e-9);
    }
    // Endpoints coincide.
    EXPECT_DOUBLE_EQ(hull.at(0), curve.at(0));
    EXPECT_DOUBLE_EQ(hull.at(curve.buckets()), curve.at(curve.buckets()));
}

TEST(MissCurve, ConvexHullIsConvex)
{
    MissCurve curve({100, 90, 85, 40, 39, 5, 4, 0});
    MissCurve hull = curve.convexHull();
    for (std::size_t k = 1; k + 1 < hull.points().size(); k++) {
        double left = hull.at(k - 1) - hull.at(k);
        double right = hull.at(k) - hull.at(k + 1);
        EXPECT_GE(left, right - 1e-9) << "non-convex at " << k;
    }
}

TEST(MissCurve, Addition)
{
    MissCurve a({10, 5, 0});
    MissCurve b({4, 4, 4});
    MissCurve sum = a + b;
    EXPECT_DOUBLE_EQ(sum.at(0), 14);
    EXPECT_DOUBLE_EQ(sum.at(2), 4);
}

TEST(MissCurve, CombineOptimalPicksBestSplit)
{
    // A saves 10/bucket for 2 buckets; B saves 1/bucket for 2.
    MissCurve a({20, 10, 0});
    MissCurve b({2, 1, 0});
    MissCurve combined = MissCurve::combineOptimal({a, b});
    EXPECT_DOUBLE_EQ(combined.at(0), 22);
    // First two buckets go to A.
    EXPECT_DOUBLE_EQ(combined.at(1), 12);
    EXPECT_DOUBLE_EQ(combined.at(2), 2);
    // Then B's buckets.
    EXPECT_DOUBLE_EQ(combined.at(4), 0);
    EXPECT_EQ(combined.buckets(), 4u);
}

TEST(MissCurve, CombineOptimalOfNothing)
{
    EXPECT_TRUE(MissCurve::combineOptimal({}).empty());
}

TEST(MissCurve, FlatAndScaled)
{
    MissCurve flat = MissCurve::flat(4, 7.0);
    EXPECT_DOUBLE_EQ(flat.at(0), 7.0);
    EXPECT_DOUBLE_EQ(flat.at(4), 7.0);
    MissCurve scaled = flat.scaled(2.0);
    EXPECT_DOUBLE_EQ(scaled.at(2), 14.0);
}

// --------------------------------------------------------------- Umon

UmonParams
smallUmon()
{
    UmonParams p;
    p.sets = 16;
    p.ways = 16;
    p.modelledLines = 16 * 16; // sample rate 1: monitor everything
    return p;
}

TEST(Umon, CountsAccesses)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 100; l++) umon.access(l);
    EXPECT_EQ(umon.accesses(), 100u);
}

TEST(Umon, ColdMissesAtFullAllocation)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 50; l++) umon.access(l);
    MissCurve curve = umon.missCurve();
    // Every access was a cold miss: curve is flat at ~50 everywhere.
    EXPECT_NEAR(curve.at(umon.params().ways), 50, 1e-9);
}

TEST(Umon, HotLineHitsNearTop)
{
    Umon umon(smallUmon());
    // Touch one line repeatedly: hits at MRU position; misses ~1.
    for (int i = 0; i < 100; i++) umon.access(7);
    MissCurve curve = umon.missCurve();
    EXPECT_NEAR(curve.at(1), 1, 1e-9);  // one cold miss with 1 bucket
    EXPECT_NEAR(curve.at(0), 100, 1e-9); // all miss with nothing
}

TEST(Umon, WorkingSetKneeVisible)
{
    // Working set of ~64 lines cycled repeatedly: with enough
    // capacity, only cold misses; with none, all misses.
    Umon umon(smallUmon());
    for (int round = 0; round < 20; round++)
        for (LineAddr l = 0; l < 64; l++) umon.access(l);
    MissCurve curve = umon.missCurve();
    double atZero = curve.at(0);
    double atFull = curve.at(umon.params().ways);
    EXPECT_NEAR(atZero, 20 * 64, 1e-6);
    // Nearly everything hits with full capacity (cold misses only).
    EXPECT_LT(atFull, 0.15 * atZero);
}

TEST(Umon, DecayScalesCounters)
{
    Umon umon(smallUmon());
    for (int i = 0; i < 100; i++) umon.access(3);
    double before = umon.missCurve().at(0);
    umon.decay(0.5);
    double after = umon.missCurve().at(0);
    EXPECT_NEAR(after, before / 2, 1.0);
}

TEST(Umon, ClearResetsCounters)
{
    Umon umon(smallUmon());
    for (LineAddr l = 0; l < 30; l++) umon.access(l);
    umon.clear();
    EXPECT_EQ(umon.accesses(), 0u);
    EXPECT_NEAR(umon.missCurve().at(0), 0, 1e-9);
}

TEST(Umon, SamplingScalesBack)
{
    UmonParams p;
    p.sets = 16;
    p.ways = 16;
    p.modelledLines = 16 * 16 * 8; // sample 1/8 of lines
    Umon umon(p);
    Rng rng(3);
    // Uniform traffic over many lines: scaled miss estimate should
    // approximate the true access count at allocation 0.
    const int n = 20000;
    for (int i = 0; i < n; i++)
        umon.access(rng.below(100000));
    double estimated = umon.missCurve().at(0);
    EXPECT_NEAR(estimated, n, 0.25 * n);
}

/**
 * Oracle: an exact Mattson LRU stack-distance count over the same
 * hash-sampled stream. Each UMON set sees its own sub-stream, so the
 * oracle keeps one unbounded recency stack per set; a reuse at stack
 * distance d is a hit at recency position d when d < ways and a miss
 * otherwise (the UMON's bounded stack has already dropped the line).
 */
class MattsonOracle
{
  public:
    explicit MattsonOracle(const UmonParams &p)
        : p_(p), stacks_(p.sets), hits_(p.ways, 0)
    {
        sampleRate_ = std::max(
            1.0, static_cast<double>(p.modelledLines) /
                     static_cast<double>(std::uint64_t{p.sets} * p.ways));
    }

    void
    access(LineAddr line)
    {
        auto rate = static_cast<std::uint64_t>(sampleRate_);
        if (umon_detail::mix(line ^ 0x5bf03635ull) % rate != 0) return;
        auto &stack = stacks_[umon_detail::mix(line) % p_.sets];
        auto it = std::find(stack.begin(), stack.end(), line);
        if (it == stack.end()) {
            misses_++; // first touch: infinite stack distance
        } else {
            auto distance = static_cast<std::size_t>(it - stack.begin());
            if (distance < p_.ways) hits_[distance]++;
            else misses_++;
            stack.erase(it);
        }
        stack.insert(stack.begin(), line);
    }

    void
    decay(double f)
    {
        for (auto &h : hits_)
            h = static_cast<std::uint64_t>(static_cast<double>(h) * f);
        misses_ = static_cast<std::uint64_t>(
            static_cast<double>(misses_) * f);
    }

    void
    clear()
    {
        std::fill(hits_.begin(), hits_.end(), 0);
        misses_ = 0;
    }

    const std::vector<std::uint64_t> &hits() const { return hits_; }

    /** misses(k) = (misses + hits at positions >= k) * sample rate. */
    MissCurve
    missCurve() const
    {
        std::vector<double> pts(p_.ways + 1);
        double tail = static_cast<double>(misses_);
        pts[p_.ways] = tail;
        for (std::size_t k = p_.ways; k-- > 0;) {
            tail += static_cast<double>(hits_[k]);
            pts[k] = tail;
        }
        for (double &x : pts) x *= sampleRate_;
        return MissCurve(std::move(pts));
    }

  private:
    UmonParams p_;
    double sampleRate_;
    std::vector<std::vector<LineAddr>> stacks_;
    std::vector<std::uint64_t> hits_;
    std::uint64_t misses_ = 0;
};

void
expectUmonMatches(const Umon &umon, const MattsonOracle &oracle,
                  const char *when)
{
    ASSERT_EQ(umon.hitCounters(), oracle.hits()) << when;
    MissCurve got = umon.missCurve(), want = oracle.missCurve();
    ASSERT_EQ(got.buckets(), want.buckets()) << when;
    for (std::size_t k = 0; k <= want.buckets(); k++)
        ASSERT_EQ(got.at(k), want.at(k)) << when << " bucket " << k;
}

class UmonOracle : public ::testing::TestWithParam<UmonParams>
{
};

TEST_P(UmonOracle, MatchesExactStackDistances)
{
    const UmonParams p = GetParam();
    Umon umon(p);
    MattsonOracle oracle(p);
    Rng rng(p.sets * 31 + p.ways);
    // Hot lines, a cyclic working set near the monitored capacity,
    // and a uniform tail, so reuse distances cover every position
    // and overflow the stacks.
    const std::uint64_t ws = std::uint64_t{p.sets} * p.ways *
                             (p.modelledLines / (p.sets * p.ways)) * 3 / 4;
    std::uint64_t cursor = 0;
    auto feed = [&](int n) {
        for (int i = 0; i < n; i++) {
            std::uint64_t roll = rng.below(10);
            LineAddr line;
            if (roll < 2) line = rng.below(64);
            else if (roll < 7) line = 100000 + (cursor++ % ws);
            else line = 1000000 + rng.below(20 * ws);
            umon.access(line);
            oracle.access(line);
        }
    };
    feed(60000);
    expectUmonMatches(umon, oracle, "after warm-up");
    std::uint64_t hitSum = 0;
    for (std::uint64_t h : oracle.hits()) hitSum += h;
    EXPECT_GT(hitSum, 1000u);
    EXPECT_GT(oracle.hits().back(), 0u) << "deepest position never hit";

    umon.decay(0.5);
    oracle.decay(0.5);
    expectUmonMatches(umon, oracle, "after decay");
    feed(30000);
    expectUmonMatches(umon, oracle, "after decay + traffic");

    umon.clear();
    oracle.clear();
    expectUmonMatches(umon, oracle, "after clear");
    feed(30000);
    expectUmonMatches(umon, oracle, "after clear + traffic");
}

UmonParams
umonGeometry(std::uint32_t sets, std::uint32_t ways, std::uint64_t rate)
{
    UmonParams p;
    p.sets = sets;
    p.ways = ways;
    p.modelledLines = std::uint64_t{sets} * ways * rate;
    return p;
}

INSTANTIATE_TEST_SUITE_P(Geometries, UmonOracle,
                         ::testing::Values(umonGeometry(16, 16, 1),
                                           umonGeometry(32, 64, 5),
                                           umonGeometry(7, 12, 3)));

// ------------------------------------------------ PlacementDescriptor

TEST(Descriptor, StripedCoversAllBanks)
{
    PlacementDescriptor desc;
    desc.fillStriped({0, 1, 2, 3});
    for (BankId b = 0; b < 4; b++)
        EXPECT_EQ(desc.slotsOn(b), PlacementDescriptor::kSlots / 4);
}

TEST(Descriptor, ProportionalSharesApproximateRatios)
{
    PlacementDescriptor desc;
    desc.fillProportional({{0, 3.0}, {1, 1.0}});
    EXPECT_NEAR(desc.slotsOn(0), 96, 2);
    EXPECT_NEAR(desc.slotsOn(1), 32, 2);
    EXPECT_EQ(desc.slotsOn(0) + desc.slotsOn(1),
              PlacementDescriptor::kSlots);
}

TEST(Descriptor, TinyShareStillReachable)
{
    PlacementDescriptor desc;
    desc.fillProportional({{0, 1000.0}, {1, 0.001}});
    EXPECT_GE(desc.slotsOn(1), 1u);
}

TEST(Descriptor, BankForUsesHash)
{
    PlacementDescriptor desc;
    desc.fillStriped({0, 1, 2, 3});
    // Deterministic.
    for (LineAddr l = 0; l < 50; l++)
        EXPECT_EQ(desc.bankFor(l), desc.bankFor(l));
    // Roughly uniform over banks.
    std::vector<int> counts(4, 0);
    for (LineAddr l = 0; l < 4000; l++) counts[desc.bankFor(l)]++;
    for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Descriptor, OwnedBanksSorted)
{
    PlacementDescriptor desc;
    desc.fillProportional({{7, 1.0}, {2, 1.0}, {11, 1.0}});
    EXPECT_EQ(desc.ownedBanks(), (std::vector<BankId>{2, 7, 11}));
}

TEST(Descriptor, StabilizedKeepsUnchangedSlots)
{
    PlacementDescriptor prev;
    prev.fillProportional({{0, 1.0}, {1, 1.0}});

    // Same share split; stabilization should be a no-op move-wise.
    PlacementDescriptor next;
    next.fillProportional({{1, 1.0}, {0, 1.0}});
    PlacementDescriptor stable = next.stabilizedAgainst(prev);

    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (stable.slot(s) != prev.slot(s)) moved++;
    EXPECT_EQ(moved, 0u);
    EXPECT_EQ(stable.slotsOn(0), next.slotsOn(0));
    EXPECT_EQ(stable.slotsOn(1), next.slotsOn(1));
}

TEST(Descriptor, StabilizedMovesMinimumForSmallChange)
{
    PlacementDescriptor prev;
    prev.fillProportional({{0, 1.0}, {1, 1.0}});

    // Shift ~8 slots of share from bank 1 to bank 0.
    PlacementDescriptor next;
    next.fillProportional({{0, 72.0}, {1, 56.0}});
    PlacementDescriptor stable = next.stabilizedAgainst(prev);

    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (stable.slot(s) != prev.slot(s)) moved++;
    // Exactly the slots whose bank lost quota move.
    EXPECT_EQ(moved, stable.slotsOn(0) - prev.slotsOn(0));
    EXPECT_EQ(stable.slotsOn(0), next.slotsOn(0));
}

TEST(Descriptor, StabilizedPreservesQuotas)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; trial++) {
        PlacementDescriptor prev, next;
        std::vector<std::pair<BankId, double>> a, b;
        for (BankId bank = 0; bank < 6; bank++) {
            a.emplace_back(bank, 1.0 + rng.uniform() * 5);
            b.emplace_back(bank, 1.0 + rng.uniform() * 5);
        }
        prev.fillProportional(a);
        next.fillProportional(b);
        PlacementDescriptor stable = next.stabilizedAgainst(prev);
        for (BankId bank = 0; bank < 6; bank++)
            EXPECT_EQ(stable.slotsOn(bank), next.slotsOn(bank));
    }
}

// ----------------------------------------------------------------- Vtb

TEST(Vtb, InstallAndLookup)
{
    Vtb vtb;
    PlacementDescriptor desc;
    desc.fillStriped({3});
    vtb.install(5, desc);
    EXPECT_TRUE(vtb.has(5));
    EXPECT_FALSE(vtb.has(6));
    EXPECT_EQ(vtb.lookup(5, 1234), 3);
}

TEST(Vtb, UnknownVcPanics)
{
    Vtb vtb;
    EXPECT_THROW(vtb.lookup(9, 0), PanicError);
}

TEST(Vtb, Reinstall)
{
    Vtb vtb;
    PlacementDescriptor a, b;
    a.fillStriped({0});
    b.fillStriped({1});
    vtb.install(1, a);
    vtb.install(1, b);
    EXPECT_EQ(vtb.lookup(1, 55), 1);
    EXPECT_EQ(vtb.size(), 1u);
}

} // namespace
} // namespace jumanji
