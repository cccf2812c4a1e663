#include "src/workloads/spec_like.hh"

#include <cmath>

#include "src/sim/logging.hh"

namespace jumanji {

namespace {

/** Lines per MB of footprint. */
constexpr std::uint64_t kMB = (1024 * 1024) / kLineBytes;

AppTraits
traitsFor(double ipc, double stall)
{
    AppTraits t;
    t.baseIpc = ipc;
    t.stallFactor = stall;
    return t;
}

std::vector<SpecAppParams>
buildCatalog()
{
    // Working sets: {lines, weight, streaming}. Weights bias accesses
    // toward the small hot set; the large sets create the capacity
    // cliffs that make an app LLC-sensitive. Values approximate the
    // published LLC behaviour of each benchmark at a coarse level.
    std::vector<SpecAppParams> apps;

    auto add = [&](std::string name, double apki,
                   std::vector<WorkingSet> ws, AppTraits traits) {
        SpecAppParams p;
        p.name = std::move(name);
        p.apki = apki;
        p.workingSets = std::move(ws);
        // Real SPEC LLC miss curves are steep near zero and flat
        // past the knee; quadratic intra-set hotness reproduces
        // that shape (see WorkingSet::skew).
        for (auto &set : p.workingSets)
            if (!set.streaming) set.skew = 1.0;
        p.traits = traits;
        apps.push_back(std::move(p));
    };

    // Compute-bound, small footprint.
    add("401.bzip2", 6.0,
        {{kMB / 2, 6.0, false}, {2 * kMB, 2.0, false}},
        traitsFor(1.6, 0.5));
    add("403.gcc", 4.0,
        {{kMB / 4, 8.0, false}, {1 * kMB, 1.5, false}},
        traitsFor(1.8, 0.5));
    add("410.bwaves", 18.0,
        {{kMB, 2.0, false}, {6 * kMB, 2.0, false}, {0, 1.5, true}},
        traitsFor(1.2, 0.7));
    add("429.mcf", 42.0,
        {{kMB / 2, 3.0, false}, {4 * kMB, 3.0, false},
         {12 * kMB, 2.0, false}},
        traitsFor(0.6, 0.8));
    add("433.milc", 26.0,
        {{2 * kMB, 2.0, false}, {8 * kMB, 2.0, false}, {0, 1.0, true}},
        traitsFor(0.9, 0.75));
    add("434.zeusmp", 12.0,
        {{kMB, 3.0, false}, {4 * kMB, 2.0, false}},
        traitsFor(1.4, 0.6));
    add("436.cactusADM", 14.0,
        {{kMB / 2, 2.0, false}, {3 * kMB, 2.5, false}},
        traitsFor(1.3, 0.65));
    add("437.leslie3d", 16.0,
        {{kMB, 2.5, false}, {5 * kMB, 2.0, false}, {0, 0.8, true}},
        traitsFor(1.2, 0.7));
    add("454.calculix", 3.0,
        {{kMB / 4, 8.0, false}, {kMB, 1.0, false}},
        traitsFor(2.2, 0.4));
    add("459.GemsFDTD", 22.0,
        {{2 * kMB, 2.0, false}, {7 * kMB, 2.0, false}, {0, 1.2, true}},
        traitsFor(1.0, 0.75));
    // Pure streaming: cache-insensitive, high intensity.
    add("462.libquantum", 28.0,
        {{0, 1.0, true}},
        traitsFor(1.1, 0.8));
    add("470.lbm", 30.0,
        {{kMB, 1.0, false}, {0, 3.0, true}},
        traitsFor(0.9, 0.8));
    // Strongly capacity-sensitive pointer chasers.
    add("471.omnetpp", 20.0,
        {{kMB / 2, 3.0, false}, {2 * kMB, 3.0, false},
         {8 * kMB, 2.0, false}},
        traitsFor(0.9, 0.75));
    add("473.astar", 12.0,
        {{kMB / 2, 4.0, false}, {3 * kMB, 2.5, false}},
        traitsFor(1.2, 0.6));
    add("482.sphinx3", 15.0,
        {{kMB, 3.0, false}, {4 * kMB, 2.0, false}},
        traitsFor(1.3, 0.65));
    add("483.xalancbmk", 18.0,
        {{kMB / 2, 3.0, false}, {2 * kMB, 2.5, false},
         {6 * kMB, 2.0, false}},
        traitsFor(1.0, 0.7));

    return apps;
}

} // namespace

const std::vector<SpecAppParams> &
specAppCatalog()
{
    static const std::vector<SpecAppParams> catalog = buildCatalog();
    return catalog;
}

const SpecAppParams &
specAppParams(const std::string &name)
{
    for (const auto &p : specAppCatalog())
        if (p.name == name) return p;
    fatal("unknown SPEC-like app: " + name);
}

SpecLikeApp::SpecLikeApp(const SpecAppParams &params, AppId app)
    : params_(params),
      stream_(appAddressBase(app), params.workingSets)
{
    if (params_.apki <= 0.0)
        fatal("SpecLikeApp: apki must be positive");
}

double
SpecLikeApp::instrsPerAccess() const
{
    return 1000.0 / params_.apki;
}

AppStep
SpecLikeApp::next(Tick, Rng &rng)
{
    // Geometric jitter around the mean gap keeps bank-port arrivals
    // from synchronising artificially across cores.
    double mean = instrsPerAccess();
    std::uint64_t gap = rng.exponentialFloor(mean) + 1;
    return AppStep::execute(gap, stream_.draw(rng));
}

} // namespace jumanji
