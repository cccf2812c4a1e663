/**
 * @file
 * Micro-benchmarks of the substrate itself (google-benchmark): the
 * event kernel, cache-array access, UMON updates, miss-curve
 * operations, the lookahead allocators, the placers, and descriptor
 * operations.
 * These bound the simulator's own costs and double as ablation
 * harnesses for data-structure choices.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/core/lookahead.hh"
#include "src/core/policies.hh"
#include "src/dnuca/umon.hh"
#include "src/dnuca/vtb.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"

namespace jumanji {
namespace {

void
BM_CacheArrayAccess(benchmark::State &state)
{
    auto repl = static_cast<ReplKind>(state.range(0));
    CacheArray array(512, 32, repl, 1);
    AccessOwner owner;
    owner.app = 0;
    owner.vc = 0;
    owner.vm = 0;
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            array.access(rng.below(32768), owner));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayAccess)
    ->Arg(static_cast<int>(ReplKind::LRU))
    ->Arg(static_cast<int>(ReplKind::SRRIP))
    ->Arg(static_cast<int>(ReplKind::DRRIP));

/** An agent that replays a table of compute gaps, counting resumes. */
class GapAgent : public Agent
{
  public:
    GapAgent(const std::vector<Tick> *gaps, std::size_t start,
             std::uint64_t *events)
        : gaps_(gaps), next_(start), events_(events)
    {
    }

    Tick
    resume(Tick now) override
    {
        ++*events_;
        Tick gap = (*gaps_)[next_];
        next_ = (next_ + 1) % gaps_->size();
        return now + gap;
    }

  private:
    const std::vector<Tick> *gaps_;
    std::size_t next_;
    std::uint64_t *events_;
};

void
BM_EventQueueRunUntil(benchmark::State &state)
{
    // fig13's shape: 20 cores plus the epoch timer, each resumed
    // after a gap of tens to hundreds of ticks, with frequent ties.
    const int agents = static_cast<int>(state.range(0));
    Rng rng(5);
    std::vector<Tick> gaps(4096);
    for (Tick &g : gaps) g = 1 + rng.below(300);
    std::uint64_t events = 0;
    std::vector<std::unique_ptr<GapAgent>> pool;
    EventQueue queue;
    for (int a = 0; a < agents; a++) {
        pool.push_back(std::make_unique<GapAgent>(
            &gaps, static_cast<std::size_t>(a) * 97, &events));
        queue.schedule(pool.back().get(), static_cast<Tick>(a % 3));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(queue.runUntil(queue.now() + 1000));
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueRunUntil)->Arg(21);

void
BM_CacheArrayBank(benchmark::State &state)
{
    // One LLC bank of the fig13 config: 128 sets x 32 ways, DRRIP,
    // 16 owners (one VC each) over 4 VMs, accesses interleaved the
    // way cores interleave at a bank.
    CacheArray array(128, 32, ReplKind::DRRIP, 1);
    std::vector<AccessOwner> owners(16);
    for (int i = 0; i < 16; i++) {
        owners[i].app = i;
        owners[i].vc = i;
        owners[i].vm = i / 4;
        owners[i].latencyCritical = i % 4 == 0;
    }
    Rng rng(2);
    const std::size_t n = 1 << 16;
    std::vector<std::uint8_t> who(n);
    std::vector<LineAddr> lines(n);
    for (std::size_t i = 0; i < n; i++) {
        who[i] = static_cast<std::uint8_t>(rng.below(16));
        lines[i] = who[i] * 100000ull + rng.below(1024);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.access(lines[i], owners[who[i]]));
        i = (i + 1) & (n - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayBank);

void
BM_UmonFig13(benchmark::State &state)
{
    // The fig13 UMON: 256 sets x 64 ways sampling 1 line in 5.
    UmonParams params;
    params.sets = 256;
    params.ways = 64;
    params.modelledLines = 256 * 64 * 5;
    Umon umon(params);
    Rng rng(3);
    const std::size_t n = 1 << 16;
    std::vector<LineAddr> lines(n);
    for (LineAddr &l : lines) l = rng.below(120000);
    std::size_t i = 0;
    for (auto _ : state) {
        umon.access(lines[i]);
        i = (i + 1) & (n - 1);
    }
    benchmark::DoNotOptimize(umon.accesses());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UmonFig13);

void
BM_UmonAccess(benchmark::State &state)
{
    UmonParams params;
    params.sets = 256;
    params.ways = 64;
    params.modelledLines = 327680;
    Umon umon(params);
    Rng rng(1);
    for (auto _ : state) umon.access(rng.below(100000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UmonAccess);

void
BM_MissCurveConvexHull(benchmark::State &state)
{
    Rng rng(3);
    std::vector<double> pts(65);
    double v = 1e6;
    for (auto &p : pts) {
        p = v;
        v -= static_cast<double>(rng.below(20000));
        if (v < 0) v = 0;
    }
    MissCurve curve(pts);
    for (auto _ : state) benchmark::DoNotOptimize(curve.convexHull());
}
BENCHMARK(BM_MissCurveConvexHull);

void
BM_CombineOptimal(benchmark::State &state)
{
    Rng rng(4);
    std::vector<MissCurve> curves;
    for (int i = 0; i < state.range(0); i++) {
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(100000));
        for (auto &p : pts) {
            p = v;
            v *= 0.8 + 0.15 * rng.uniform();
        }
        curves.emplace_back(pts);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(MissCurve::combineOptimal(curves));
}
BENCHMARK(BM_CombineOptimal)->Arg(4)->Arg(16);

PlacementGeometry
paperGeo()
{
    PlacementGeometry geo;
    geo.banks = 20;
    geo.waysPerBank = 32;
    geo.linesPerBank = 16384;
    geo.linesPerBucket = geo.totalLines() / 64;
    return geo;
}

std::vector<LookaheadClaim>
randomClaims(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<LookaheadClaim> claims(n);
    for (auto &claim : claims) {
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(1000000));
        for (auto &p : pts) {
            p = v;
            v *= 0.75 + 0.2 * rng.uniform();
        }
        claim.curve = MissCurve(pts).convexHull();
    }
    return claims;
}

void
BM_Lookahead20Claims(benchmark::State &state)
{
    PlacementGeometry geo = paperGeo();
    auto claims = randomClaims(20, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            lookahead(claims, geo.totalLines(), geo));
}
BENCHMARK(BM_Lookahead20Claims);

void
BM_JumanjiLookahead(benchmark::State &state)
{
    PlacementGeometry geo = paperGeo();
    auto claims = randomClaims(4, 9);
    for (auto &c : claims) c.floorLines = geo.linesPerBank / 2;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            jumanjiLookahead(claims, geo.totalLines(), geo));
}
BENCHMARK(BM_JumanjiLookahead);

void
BM_FullJumanjiReconfigure(benchmark::State &state)
{
    // The paper reports 11.9 Mcycles per reconfiguration (~4.5 ms);
    // this measures our software implementation of the same step.
    PlacementGeometry geo = paperGeo();
    MeshParams mp;
    MeshTopology mesh(mp);

    EpochInputs in;
    in.geo = geo;
    in.mesh = &mesh;
    Rng rng(11);
    for (int i = 0; i < 20; i++) {
        VcInfo vc;
        vc.vc = i;
        vc.app = i;
        vc.vm = i / 5;
        vc.coreTile = static_cast<std::uint32_t>(i);
        vc.latencyCritical = (i % 5 == 0);
        vc.targetLines = 2048;
        std::vector<double> pts(65);
        double v = 1e5 + static_cast<double>(rng.below(1000000));
        for (auto &p : pts) {
            p = v;
            v *= 0.8;
        }
        vc.curve = MissCurve(pts).convexHull();
        in.vcs.push_back(std::move(vc));
    }

    JumanjiPolicy policy(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(policy.reconfigure(in));
}
BENCHMARK(BM_FullJumanjiReconfigure);

void
BM_DescriptorStabilize(benchmark::State &state)
{
    PlacementDescriptor prev, next;
    prev.fillProportional({{0, 3.0}, {1, 2.0}, {2, 1.0}});
    next.fillProportional({{0, 2.5}, {1, 2.5}, {2, 1.0}});
    for (auto _ : state)
        benchmark::DoNotOptimize(next.stabilizedAgainst(prev));
}
BENCHMARK(BM_DescriptorStabilize);

void
BM_DescriptorLookup(benchmark::State &state)
{
    PlacementDescriptor desc;
    std::vector<BankId> banks;
    for (BankId b = 0; b < 20; b++) banks.push_back(b);
    desc.fillStriped(banks);
    LineAddr line = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(desc.bankFor(line++));
}
BENCHMARK(BM_DescriptorLookup);

} // namespace
} // namespace jumanji

BENCHMARK_MAIN();
