/**
 * @file
 * Unit tests for CoreModel and MemPath (the full access path).
 */

#include <gtest/gtest.h>

#include "src/cpu/core_model.hh"
#include "src/cpu/mem_path.hh"
#include "src/sim/logging.hh"

namespace jumanji {
namespace {

LlcParams
tinyLlc()
{
    LlcParams llc;
    llc.banks = 4;
    llc.setsPerBank = 16;
    llc.ways = 4;
    llc.repl = ReplKind::LRU;
    llc.timing.accessLatency = 13;
    llc.timing.portOccupancy = 1;
    return llc;
}

MeshParams
quadMesh()
{
    MeshParams p;
    p.cols = 2;
    p.rows = 2;
    p.routerDelay = 2;
    p.linkDelay = 1;
    return p;
}

UmonParams
tinyUmon()
{
    UmonParams p;
    p.sets = 8;
    p.ways = 8;
    return p;
}

std::unique_ptr<MemPath>
makePath()
{
    auto path = std::make_unique<MemPath>(tinyLlc(), quadMesh(),
                                          MemoryParams{}, tinyUmon(), 1);
    return path;
}

AccessOwner
owner(AppId app, VmId vm = 0)
{
    AccessOwner o;
    o.app = app;
    o.vc = app;
    o.vm = vm;
    return o;
}

void
installStriped(MemPath &path, VcId vc)
{
    PlacementDescriptor desc;
    std::vector<BankId> banks;
    for (std::uint32_t b = 0; b < path.numBanks(); b++)
        banks.push_back(static_cast<BankId>(b));
    desc.fillStriped(banks);
    path.installPlacement(vc, desc);
}

// ------------------------------------------------------------ MemPath

TEST(MemPath, LocalHitLatency)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor desc;
    desc.fillStriped({0}); // everything in bank 0
    path->installPlacement(0, desc);

    // First access misses to memory; second hits.
    path->access(0, /*coreTile=*/0, owner(0), 42);
    PathAccessResult hit = path->access(1000, 0, owner(0), 42);
    EXPECT_TRUE(hit.llcHit);
    EXPECT_EQ(hit.hopsToBank, 0u);
    EXPECT_EQ(hit.latency, 13u); // local bank: no NoC
}

TEST(MemPath, RemoteHitAddsNocLatency)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor desc;
    desc.fillStriped({3}); // diagonal bank: 2 hops from tile 0
    path->installPlacement(0, desc);

    path->access(0, 0, owner(0), 42);
    PathAccessResult hit = path->access(1000, 0, owner(0), 42);
    EXPECT_TRUE(hit.llcHit);
    EXPECT_EQ(hit.hopsToBank, 2u);
    // 2 hops x 3 cycles x 2 directions + 13-cycle bank.
    EXPECT_EQ(hit.latency, 12u + 13u);
}

TEST(MemPath, MissGoesToMemory)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    PathAccessResult miss = path->access(0, 0, owner(0), 7);
    EXPECT_FALSE(miss.llcHit);
    EXPECT_GE(miss.latency, MemoryParams{}.accessLatency);
    EXPECT_EQ(path->counters().llcMisses, 1u);
    EXPECT_EQ(path->counters().memAccesses, 1u);
}

TEST(MemPath, CountersAccumulate)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 50; l++) path->access(0, 0, owner(0), l);
    for (LineAddr l = 0; l < 50; l++)
        path->access(10000, 0, owner(0), l);
    EXPECT_EQ(path->counters().llcMisses, 50u);
    EXPECT_EQ(path->counters().llcHits, 50u);
}

TEST(MemPath, UmonObservesAccesses)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0), l);
    EXPECT_EQ(path->umon(0).accesses(), 100u);
}

TEST(MemPath, UnregisteredUmonPanics)
{
    auto path = makePath();
    EXPECT_THROW(path->umon(3), PanicError);
}

TEST(MemPath, VulnerabilityMetricCountsOtherVms)
{
    auto path = makePath();
    path->registerVc(0);
    path->registerVc(1);
    installStriped(*path, 0);
    installStriped(*path, 1);

    // VM 0 fills bank state everywhere.
    for (LineAddr l = 0; l < 200; l++)
        path->access(0, 0, owner(0, 0), l);
    path->clearVulnerabilityStats();

    // VM 1's accesses see one untrusted app occupying the banks.
    for (LineAddr l = 1000; l < 1050; l++)
        path->access(10000, 3, owner(1, 1), l);
    EXPECT_GT(path->avgAttackersPerAccess(), 0.9);
}

TEST(MemPath, IsolatedVcsHaveNoAttackers)
{
    auto path = makePath();
    path->registerVc(0);
    path->registerVc(1);
    PlacementDescriptor d0, d1;
    d0.fillStriped({0, 1});
    d1.fillStriped({2, 3});
    path->installPlacement(0, d0);
    path->installPlacement(1, d1);

    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0, 0), l);
    path->clearVulnerabilityStats();
    for (LineAddr l = 1000; l < 1100; l++)
        path->access(5000, 3, owner(1, 1), l);
    EXPECT_DOUBLE_EQ(path->avgAttackersPerAccess(), 0.0);
}

TEST(MemPath, ReconfigurationInvalidatesMovedLines)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor before;
    before.fillStriped({0});
    path->installPlacement(0, before);
    for (LineAddr l = 0; l < 40; l++) path->access(0, 0, owner(0), l);
    std::uint64_t resident = path->bank(0).constArray().occupancyOfVc(0);
    EXPECT_GT(resident, 0u);

    PlacementDescriptor after;
    after.fillStriped({1});
    std::uint64_t invalidated = path->installPlacement(0, after);
    EXPECT_EQ(invalidated, resident);
    EXPECT_EQ(path->bank(0).constArray().occupancyOfVc(0), 0u);
}

TEST(MemPath, IdenticalReinstallInvalidatesNothing)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    for (LineAddr l = 0; l < 40; l++) path->access(0, 0, owner(0), l);
    PlacementDescriptor same;
    std::vector<BankId> banks;
    for (std::uint32_t b = 0; b < path->numBanks(); b++)
        banks.push_back(static_cast<BankId>(b));
    same.fillStriped(banks);
    EXPECT_EQ(path->installPlacement(0, same), 0u);
}

TEST(MemPath, PartialMoveInvalidatesOnlyMovedSlices)
{
    auto path = makePath();
    path->registerVc(0);
    PlacementDescriptor before;
    before.fillStriped({0, 1});
    path->installPlacement(0, before);
    for (LineAddr l = 0; l < 100; l++) path->access(0, 0, owner(0), l);
    std::uint64_t occ0 = path->bank(0).constArray().occupancyOfVc(0);
    std::uint64_t occ1 = path->bank(1).constArray().occupancyOfVc(0);

    // Keep the same slot->bank mapping for bank 0's slices and move
    // bank 1's slices to bank 2.
    PlacementDescriptor after = before;
    for (std::uint32_t s = 0; s < PlacementDescriptor::kSlots; s++)
        if (after.slot(s) == 1) after.setSlot(s, 2);
    std::uint64_t invalidated = path->installPlacement(0, after);
    EXPECT_EQ(invalidated, occ1);
    EXPECT_EQ(path->bank(0).constArray().occupancyOfVc(0), occ0);
}

void
expectSameResult(const PathAccessResult &a, const PathAccessResult &b)
{
    EXPECT_EQ(a.llcHit, b.llcHit);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.bankQueueDelay, b.bankQueueDelay);
    EXPECT_EQ(a.hopsToBank, b.hopsToBank);
}

TEST(MemPath, ReusedRouteIsReplannedAfterAnInstall)
{
    // Two identical paths: one arrives with the route planned at
    // issue, the other re-plans with the four-argument form.
    auto reuse = makePath();
    auto replan = makePath();
    for (MemPath *p : {reuse.get(), replan.get()}) {
        p->registerVc(0);
        installStriped(*p, 0);
    }
    const LineAddr line = 42;
    MemPath::Route planned = reuse->planAccess(0, 0, line);

    // Reconfigure between issue and arrival: the line's bank moves.
    PlacementDescriptor moved;
    const BankId target = (planned.bank + 1) % 4;
    moved.fillStriped({target});
    for (MemPath *p : {reuse.get(), replan.get()})
        p->installPlacement(0, moved);

    PathAccessResult a = reuse->accessArrived(100, 0, owner(0), line,
                                              planned);
    PathAccessResult b = replan->accessArrived(100, 0, owner(0), line);
    EXPECT_EQ(a.bank, target);
    expectSameResult(a, b);

    // A thread migration between issue and arrival re-plans too.
    planned = reuse->planAccess(0, 0, line + 1);
    a = reuse->accessArrived(200, 3, owner(0), line + 1, planned);
    b = replan->accessArrived(200, 3, owner(0), line + 1);
    EXPECT_EQ(a.hopsToBank, replan->mesh().hops(3, target));
    expectSameResult(a, b);
}

TEST(MemPath, ReusedRouteMatchesFourArgumentPath)
{
    // With no install in between, reusing the planned route gives
    // the same results, counters and cache state over a seeded
    // stream from several cores, VMs and VCs.
    auto reuse = makePath();
    auto replan = makePath();
    for (MemPath *p : {reuse.get(), replan.get()}) {
        for (VcId vc = 0; vc < 3; vc++) {
            p->registerVc(vc);
            PlacementDescriptor desc;
            desc.fillProportional(
                {{vc, 3.0}, {(vc + 1) % 4, 1.0}, {3, 1.0}});
            p->installPlacement(vc, desc);
        }
    }
    Rng rng(23);
    Tick now = 0;
    for (int i = 0; i < 20000; i++) {
        const auto tile = static_cast<std::uint32_t>(rng.below(4));
        const auto app = static_cast<AppId>(rng.below(3));
        const AccessOwner o = owner(app, app == 2 ? 1 : 0);
        const LineAddr line = rng.below(512);
        now += 1 + rng.below(20);
        MemPath::Route planned = reuse->planAccess(tile, o.vc, line);
        PathAccessResult a = reuse->accessArrived(
            now + planned.traversal, tile, o, line, planned);
        PathAccessResult b =
            replan->accessArrived(now + planned.traversal, tile, o, line);
        expectSameResult(a, b);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "access " << i;
    }
    EXPECT_EQ(reuse->counters().llcHits, replan->counters().llcHits);
    EXPECT_EQ(reuse->counters().nocHops, replan->counters().nocHops);
    EXPECT_EQ(reuse->umon(1).accesses(), replan->umon(1).accesses());
}

TEST(MemPath, WayMaskInstallation)
{
    auto path = makePath();
    path->registerVc(0);
    std::vector<WayMask> masks(path->numBanks(), WayMask::range(0, 2));
    path->installWayMasks(0, masks);
    EXPECT_EQ(path->bank(0).array().wayMaskFor(0).count(), 2u);
    EXPECT_THROW(path->installWayMasks(0, {WayMask(0)}), PanicError);
}

// ---------------------------------------------------------- CoreModel

/** A fixed app: N instructions then an access, forever. */
class FixedApp : public AppModel
{
  public:
    FixedApp(std::uint64_t instrs, LineAddr base)
        : instrs_(instrs), base_(base)
    {
        traits_.baseIpc = 2.0;
        traits_.stallFactor = 1.0;
    }

    const std::string &name() const override { return name_; }
    const AppTraits &traits() const override { return traits_; }

    AppStep
    next(Tick, Rng &) override
    {
        return AppStep::execute(instrs_, base_ + (counter_++ % 8));
    }

    int completions = 0;
    void onAccessComplete(Tick) override { completions++; }

  private:
    std::string name_ = "fixed";
    AppTraits traits_;
    std::uint64_t instrs_;
    LineAddr base_;
    std::uint64_t counter_ = 0;
};

TEST(CoreModel, RetiresInstructionsAndCharges)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);

    FixedApp app(100, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    queue.runUntil(50000);

    EXPECT_GT(core.instrsRetired(), 0u);
    EXPECT_GT(core.stallCycles(), 0u);
    EXPECT_GT(app.completions, 0);
    EXPECT_EQ(core.counters().llcHits + core.counters().llcMisses,
              static_cast<std::uint64_t>(app.completions));
}

TEST(CoreModel, IpcBoundedByBaseIpc)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);

    FixedApp app(1000, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    Tick end = queue.runUntil(100000);
    double ipc = static_cast<double>(core.instrsRetired()) /
                 static_cast<double>(end);
    EXPECT_LE(ipc, 2.0 + 1e-9);
    EXPECT_GT(ipc, 0.5);
}

TEST(CoreModel, ResetAccountingClears)
{
    auto path = makePath();
    path->registerVc(0);
    installStriped(*path, 0);
    FixedApp app(100, 0);
    CoreModel core(0, owner(0), &app, path.get(), Rng(1));
    EventQueue queue;
    queue.schedule(&core, 0);
    queue.runUntil(10000);
    core.resetAccounting();
    EXPECT_EQ(core.instrsRetired(), 0u);
    EXPECT_EQ(core.stallCycles(), 0u);
    EXPECT_EQ(core.counters().llcHits, 0u);
}

TEST(CoreModel, RejectsNullArgs)
{
    auto path = makePath();
    FixedApp app(1, 0);
    EXPECT_THROW(CoreModel(0, owner(0), nullptr, path.get(), Rng(1)),
                 FatalError);
    EXPECT_THROW(CoreModel(0, owner(0), &app, nullptr, Rng(1)),
                 FatalError);
}

} // namespace
} // namespace jumanji
