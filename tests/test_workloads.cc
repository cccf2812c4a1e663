/**
 * @file
 * Unit tests for the workload generators: address streams, the SPEC
 * catalog, TailBench-like LC apps, and mix construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/sim/logging.hh"
#include "src/system/config.hh"
#include "src/system/system.hh"
#include "src/workloads/address_stream.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/mixes.hh"
#include "src/workloads/spec_like.hh"
#include "src/workloads/tail_latency.hh"

namespace jumanji {
namespace {

/**
 * 2.0, hidden from the optimizer: GCC folds pow(x, 2.0) with a
 * literal exponent into x * x, which would turn every pow reference
 * below into the very fast path it checks.
 */
double
opaqueTwo()
{
    volatile double two = 2.0;
    return two;
}

/** Every working-set size in the catalogs, scaled as System does. */
std::vector<std::uint64_t>
catalogSetSizes(double scale)
{
    std::vector<std::vector<WorkingSet>> all;
    for (const SpecAppParams &p : specAppCatalog())
        all.push_back(p.workingSets);
    for (const std::string &name : allLcAppNames())
        all.push_back(lcAppParams(name).workingSets);
    std::set<std::uint64_t> sizes;
    for (const auto &sets : all) {
        for (const WorkingSet &ws : sets) {
            if (ws.streaming || ws.lines == 0) continue;
            sizes.insert(scale == 1.0
                             ? ws.lines
                             : std::max<std::uint64_t>(
                                   16, static_cast<std::uint64_t>(
                                           static_cast<double>(ws.lines) *
                                           scale)));
        }
    }
    return {sizes.begin(), sizes.end()};
}

/**
 * Every mean the simulator draws exponentials at: the step gaps
 * (1000 / APKI) of every batch and LC app, the nominal request
 * interarrivals of every LC app at both loads, and a decade sweep
 * that brackets the calibrated and trace-scaled interarrivals.
 */
std::vector<double>
simulatorMeans()
{
    std::set<double> means;
    for (const SpecAppParams &p : specAppCatalog())
        means.insert(1000.0 / p.apki);
    const double llcLatency = SystemConfig::benchScaled().nominalLlcLatency;
    for (const std::string &name : allLcAppNames()) {
        const TailAppParams &p = lcAppParams(name);
        means.insert(1000.0 / p.apki);
        const double service = System::nominalServiceCycles(p, llcLatency);
        for (LoadLevel load : {LoadLevel::Low, LoadLevel::High})
            means.insert(service / loadUtilization(load));
    }
    for (double m = 1.0; m <= 1e7; m *= 10.0) means.insert(m);
    return {means.begin(), means.end()};
}

// --------------------------------------------- Exact libm-free paths

TEST(Rng, ExponentialFloorMatchesLibm)
{
    // Directed: a mean that puts -mean * log1p(-u) within an ulp or
    // two of an integer, where only libm can decide the floor. The
    // libm-free path must decline every one, and the result must
    // still be the libm floor.
    Rng rng(17);
    int cases = 0;
    int fallbacks = 0;
    for (int i = 0; i < 100000; i++) {
        const double u = rng.uniform();
        const double logged = -std::log1p(-u);
        if (logged == 0.0) continue;
        const double mean =
            static_cast<double>(1 + rng.below(100000)) / logged;
        std::uint64_t approx;
        cases++;
        if (!rng_detail::approxFloorExponential(u, mean, approx))
            fallbacks++;
        ASSERT_EQ(rng_detail::floorExponential(u, mean),
                  static_cast<std::uint64_t>(-mean * std::log1p(-u)))
            << "u=" << u << " mean=" << mean;
    }
    EXPECT_EQ(fallbacks, cases);

    // u = 0 gives exactly 0; the path cannot certify a floor there.
    std::uint64_t approx;
    EXPECT_FALSE(rng_detail::approxFloorExponential(0.0, 10.0, approx));
    EXPECT_EQ(rng_detail::floorExponential(0.0, 10.0), 0u);
}

/** One mean from simulatorMeans(). */
class ExponentialFloorStream : public ::testing::TestWithParam<double>
{
};

TEST_P(ExponentialFloorStream, MatchesLibm)
{
    // 10^7 same-seed draws: the floor and the truncated libm variate
    // agree on every one, and consume the same stream.
    const double mean = GetParam();
    Rng fast(0x5eed ^ static_cast<std::uint64_t>(mean * 1e3));
    Rng libm = fast;
    std::uint64_t mismatches = 0;
    std::uint64_t first = 0;
    for (std::uint64_t i = 0; i < 10000000; i++) {
        const std::uint64_t a = fast.exponentialFloor(mean);
        const auto b = static_cast<std::uint64_t>(libm.exponential(mean));
        if (a != b && mismatches++ == 0) first = i;
    }
    EXPECT_EQ(mismatches, 0u) << "mean=" << mean << " first at " << first;
    EXPECT_EQ(fast.next(), libm.next());
}

INSTANTIATE_TEST_SUITE_P(SimulatorMeans, ExponentialFloorStream,
                         ::testing::ValuesIn(simulatorMeans()));

TEST(AddressStream, SquaredDrawMatchesPow)
{
    const double two = opaqueTwo();
    for (double scale : {0.25, 1.0}) {
        for (std::uint64_t lines : catalogSetSizes(scale)) {
            const auto n = static_cast<double>(lines);
            auto check = [&](double u) {
                auto want = static_cast<std::uint64_t>(n * std::pow(u, two));
                if (want >= lines) want = lines - 1;
                ASSERT_EQ(hotFrontPosition(lines, 2.0, u), want)
                    << "lines=" << lines << " u=" << u;
            };
            Rng rng(lines);
            for (int i = 0; i < 20000; i++) check(rng.uniform());
            // Directed: u around sqrt(k / lines), so lines * u^2 sits
            // on or within an ulp of the integer k, for the first
            // 2000 and 2000 random k.
            for (int i = 0; i < 4000; i++) {
                const std::uint64_t k = i < 2000
                    ? static_cast<std::uint64_t>(i) % lines
                    : rng.below(lines);
                double u = std::sqrt(static_cast<double>(k) / n);
                for (int step = 0; step < 2; step++)
                    u = std::nextafter(u, 0.0);
                for (int step = 0; step < 5; step++) {
                    if (u >= 0.0 && u < 1.0) check(u);
                    u = std::nextafter(u, 1.0);
                }
            }
            check(0.0);
            check(std::nextafter(1.0, 0.0));
        }
    }

    // End to end: the 429.mcf stream against the pow-based draw.
    const std::vector<WorkingSet> sets =
        specAppParams("429.mcf").workingSets;
    AddressStream stream(appAddressBase(3), sets);
    std::vector<double> cum;
    double total = 0.0;
    for (const WorkingSet &ws : sets) cum.push_back(total += ws.weight);
    Rng fast(29);
    Rng slow = fast;
    for (int i = 0; i < 200000; i++) {
        double pick = slow.uniform() * total;
        std::size_t idx = 0;
        LineAddr offset = 0;
        while (idx + 1 < cum.size() && pick >= cum[idx])
            offset += sets[idx++].lines;
        const auto n = static_cast<double>(sets[idx].lines);
        const double u = slow.uniform();
        auto pos = static_cast<std::uint64_t>(
            n * std::pow(u, 1.0 + sets[idx].skew));
        if (pos >= sets[idx].lines) pos = sets[idx].lines - 1;
        ASSERT_EQ(stream.draw(fast), appAddressBase(3) + offset + pos);
    }
}

// ------------------------------------------------------ AddressStream

TEST(AddressStream, DrawsWithinFootprint)
{
    AddressStream stream(1000, {{64, 1.0, false}, {128, 1.0, false}});
    Rng rng(1);
    for (int i = 0; i < 1000; i++) {
        LineAddr line = stream.draw(rng);
        EXPECT_GE(line, 1000u);
        EXPECT_LT(line, 1000u + 192u);
    }
    EXPECT_EQ(stream.footprintLines(), 192u);
}

TEST(AddressStream, WorkingSetsDisjoint)
{
    AddressStream streamA(0, {{64, 1.0, false}});
    AddressStream streamB(appAddressBase(1), {{64, 1.0, false}});
    Rng rng(1);
    for (int i = 0; i < 100; i++)
        EXPECT_NE(streamA.draw(rng) >> 40, streamB.draw(rng) >> 40);
}

TEST(AddressStream, WeightsBiasDraws)
{
    AddressStream stream(0, {{64, 9.0, false}, {64, 1.0, false}});
    Rng rng(2);
    int firstSet = 0;
    const int n = 10000;
    for (int i = 0; i < n; i++)
        if (stream.draw(rng) < 64) firstSet++;
    EXPECT_NEAR(static_cast<double>(firstSet) / n, 0.9, 0.03);
}

TEST(AddressStream, StreamingNeverReuses)
{
    AddressStream stream(0, {{0, 1.0, true}});
    Rng rng(3);
    std::set<LineAddr> seen;
    for (int i = 0; i < 1000; i++)
        EXPECT_TRUE(seen.insert(stream.draw(rng)).second);
}

TEST(AddressStream, RejectsEmpty)
{
    EXPECT_THROW(AddressStream(0, {}), FatalError);
    EXPECT_THROW(AddressStream(0, {{64, 0.0, false}}), FatalError);
}

// ------------------------------------------------------- SPEC catalog

TEST(SpecCatalog, HasSixteenApps)
{
    EXPECT_EQ(specAppCatalog().size(), 16u);
}

TEST(SpecCatalog, NamesMatchFootnote)
{
    // Footnote 1 of the paper.
    for (const char *name :
         {"401.bzip2", "403.gcc", "410.bwaves", "429.mcf", "433.milc",
          "434.zeusmp", "436.cactusADM", "437.leslie3d", "454.calculix",
          "459.GemsFDTD", "462.libquantum", "470.lbm", "471.omnetpp",
          "473.astar", "482.sphinx3", "483.xalancbmk"}) {
        EXPECT_NO_THROW(specAppParams(name)) << name;
    }
    EXPECT_THROW(specAppParams("999.nope"), FatalError);
}

TEST(SpecCatalog, ParametersSane)
{
    for (const auto &app : specAppCatalog()) {
        EXPECT_GT(app.apki, 0.0) << app.name;
        EXPECT_GT(app.traits.baseIpc, 0.0) << app.name;
        EXPECT_FALSE(app.workingSets.empty()) << app.name;
        EXPECT_GT(app.traits.stallFactor, 0.0) << app.name;
        EXPECT_LE(app.traits.stallFactor, 1.0) << app.name;
    }
}

TEST(SpecLikeApp, GeneratesStepsWithAccesses)
{
    SpecLikeApp app(specAppParams("429.mcf"), 0);
    Rng rng(1);
    double totalInstrs = 0;
    int accesses = 0;
    for (int i = 0; i < 1000; i++) {
        AppStep step = app.next(0, rng);
        EXPECT_EQ(step.kind, AppStep::Kind::Execute);
        totalInstrs += static_cast<double>(step.instrs);
        if (step.access) accesses++;
    }
    EXPECT_EQ(accesses, 1000);
    // APKI check: accesses per kiloinstruction near the parameter.
    double apki = 1000.0 * accesses / totalInstrs;
    EXPECT_NEAR(apki, specAppParams("429.mcf").apki,
                0.2 * specAppParams("429.mcf").apki);
}

TEST(SpecLikeApp, DistinctMissCurveShapes)
{
    // libquantum streams (no reuse): its draws never repeat.
    SpecLikeApp stream(specAppParams("462.libquantum"), 0);
    Rng rng(1);
    std::set<LineAddr> seen;
    for (int i = 0; i < 500; i++) {
        AppStep step = stream.next(0, rng);
        ASSERT_TRUE(step.access.has_value());
        EXPECT_TRUE(seen.insert(*step.access).second);
    }
}

// ----------------------------------------------------- TailLatencyApp

TEST(TailCatalog, HasFiveApps)
{
    EXPECT_EQ(tailAppCatalog().size(), 5u);
    for (const char *name :
         {"masstree", "xapian", "img-dnn", "silo", "moses"})
        EXPECT_NO_THROW(tailAppParams(name)) << name;
}

TEST(TailCatalog, RequestSizeOrderingMatchesTableIII)
{
    // Table III: QPS ordering silo > masstree > xapian > img-dnn ~
    // moses; request cost is the inverse ordering.
    EXPECT_LT(tailAppParams("silo").instrsPerRequest,
              tailAppParams("masstree").instrsPerRequest);
    EXPECT_LT(tailAppParams("masstree").instrsPerRequest,
              tailAppParams("xapian").instrsPerRequest);
    EXPECT_LT(tailAppParams("xapian").instrsPerRequest,
              tailAppParams("img-dnn").instrsPerRequest);
}

TEST(TailLatencyApp, IdlesUntilFirstArrival)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 1e7, Rng(1));
    Rng rng(2);
    AppStep step = app.next(0, rng);
    EXPECT_EQ(step.kind, AppStep::Kind::Idle);
    EXPECT_GT(step.wakeTick, 0u);
}

TEST(TailLatencyApp, ServesRequestAfterArrival)
{
    TailLatencyApp app(tailAppParams("silo"), 0, 1000.0, Rng(1));
    Rng rng(2);
    AppStep first = app.next(0, rng);
    ASSERT_EQ(first.kind, AppStep::Kind::Idle);
    // Jump past the arrival: now there is work.
    AppStep step = app.next(first.wakeTick + 1, rng);
    EXPECT_EQ(step.kind, AppStep::Kind::Execute);
    EXPECT_TRUE(step.access.has_value());
}

TEST(TailLatencyApp, CompletionRecordsLatency)
{
    TailAppParams params = tailAppParams("silo");
    TailLatencyApp app(params, 0, 1000.0, Rng(1));
    Rng rng(2);

    Tick completionSeen = 0;
    double latencySeen = 0;
    app.setCompletionListener([&](Tick when, double latency) {
        completionSeen = when;
        latencySeen = latency;
    });

    // Drive the app manually: each Execute step's access "completes"
    // 50 cycles later.
    Tick now = 0;
    for (int i = 0; i < 100000 && app.requestsCompleted() == 0; i++) {
        AppStep step = app.next(now, rng);
        if (step.kind == AppStep::Kind::Idle) {
            now = step.wakeTick;
            continue;
        }
        now += step.instrs;
        if (step.access) app.onAccessComplete(now + 50);
    }
    ASSERT_EQ(app.requestsCompleted(), 1u);
    EXPECT_GT(completionSeen, 0u);
    EXPECT_GT(latencySeen, 0.0);
    EXPECT_EQ(app.latencies().count(), 1u);
}

TEST(TailLatencyApp, OpenLoopArrivalsKeepComing)
{
    // Open loop: arrivals accumulate even while the server is busy.
    TailLatencyApp app(tailAppParams("silo"), 0, 100.0, Rng(1));
    Rng rng(2);
    app.next(100000, rng); // drain arrivals up to t=100k
    EXPECT_GT(app.requestsArrived(), 500u);
    EXPECT_GT(app.queueDepth(), 0u);
}

TEST(TailLatencyApp, ArrivalRateMatchesInterarrival)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 5000.0, Rng(9));
    Rng rng(2);
    app.next(10000000, rng);
    double rate = static_cast<double>(app.requestsArrived()) / 1e7;
    EXPECT_NEAR(rate, 1.0 / 5000.0, 0.1 / 5000.0);
}

TEST(TailLatencyApp, LoadChangeTakesEffect)
{
    TailLatencyApp app(tailAppParams("xapian"), 0, 1e9, Rng(1));
    app.setMeanInterarrival(10.0);
    Rng rng(2);
    app.next(100000, rng);
    EXPECT_GT(app.requestsArrived(), 100u);
}

TEST(TailLatencyApp, DeterministicAcrossInstances)
{
    // Same seed -> same arrival process (the property that makes
    // cross-design comparisons fair).
    TailLatencyApp a(tailAppParams("moses"), 0, 1000.0, Rng(42));
    TailLatencyApp b(tailAppParams("moses"), 0, 1000.0, Rng(42));
    Rng rngA(7), rngB(7);
    for (int i = 0; i < 50; i++) {
        AppStep sa = a.next(i * 2000, rngA);
        AppStep sb = b.next(i * 2000, rngB);
        EXPECT_EQ(sa.kind, sb.kind);
        EXPECT_EQ(sa.instrs, sb.instrs);
    }
}

TEST(TailLatencyApp, RejectsBadConfig)
{
    EXPECT_THROW(TailLatencyApp(tailAppParams("silo"), 0, 0.0, Rng(1)),
                 FatalError);
}

// -------------------------------------------------------------- Mixes

TEST(Mixes, MakeMixShape)
{
    Rng rng(1);
    WorkloadMix mix = makeMix({"xapian"}, 4, 4, rng);
    EXPECT_EQ(mix.vms.size(), 4u);
    for (const auto &vm : mix.vms) {
        EXPECT_EQ(vm.lcApps.size(), 1u);
        EXPECT_EQ(vm.lcApps[0], "xapian");
        EXPECT_EQ(vm.batchApps.size(), 4u);
    }
    EXPECT_EQ(mix.totalApps(), 20u);
}

TEST(Mixes, MixedLcCycles)
{
    Rng rng(1);
    auto names = allTailAppNames();
    WorkloadMix mix = makeMix(names, 4, 4, rng);
    EXPECT_EQ(mix.vms[0].lcApps[0], names[0]);
    EXPECT_EQ(mix.vms[3].lcApps[0], names[3]);
}

TEST(Mixes, DeterministicGivenSeed)
{
    Rng a(99), b(99);
    WorkloadMix ma = makeMix({"silo"}, 4, 4, a);
    WorkloadMix mb = makeMix({"silo"}, 4, 4, b);
    for (std::size_t v = 0; v < 4; v++)
        EXPECT_EQ(ma.vms[v].batchApps, mb.vms[v].batchApps);
}

TEST(Mixes, RegroupPreservesPopulation)
{
    Rng rng(5);
    WorkloadMix base = makeMix(allTailAppNames(), 4, 4, rng);
    for (std::uint32_t vms : {1u, 2u, 6u, 12u}) {
        WorkloadMix regrouped = regroupMix(base, vms);
        EXPECT_EQ(regrouped.vms.size(), vms);
        EXPECT_EQ(regrouped.totalApps(), base.totalApps());
        std::uint32_t lc = 0;
        for (const auto &vm : regrouped.vms)
            lc += static_cast<std::uint32_t>(vm.lcApps.size());
        EXPECT_EQ(lc, 4u);
    }
}

TEST(Mixes, AllTailAppNamesMatchesCatalog)
{
    EXPECT_EQ(allTailAppNames().size(), tailAppCatalog().size());
}

} // namespace
} // namespace jumanji
