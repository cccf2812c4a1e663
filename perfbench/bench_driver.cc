/**
 * @file
 * Measurement side of the repository benchmark (perfbench/README.md).
 *
 * Runs one scenario grid through the library's public API —
 * ExperimentSpec::fromJson -> expandSpec -> Orchestrator::
 * runCalibrations / Orchestrator::run -> renderSpec — with the result
 * cache off, and writes what it measured as one JSON document: host
 * timings per pass, per-job result fingerprints, the rendered table,
 * deterministic op counts summed from every run's StatRegistry dump,
 * and (trace mode) profiler scope totals plus outside-in probe costs
 * for each simulator layer. All arithmetic, correctness checks and
 * reporting happen in perfbench/run.py; this program only measures.
 *
 *   bench_driver run   --scenario F --mixes N --seed S --jobs J
 *                      --min-seconds R --min-setups K
 *                      --work-dir D --out FILE
 *   bench_driver trace --scenario F --mixes N --seed S --jobs J
 *                      --probe-jobs a,b,... --work-dir D --out FILE
 *
 * Exit status: 0 when the document was written (failed jobs are
 * recorded in it, never fatal), 2 on bad arguments or an unreadable
 * scenario.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/policies.hh"
#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"
#include "src/sim/check.hh"
#include "src/sim/fingerprint.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"
#include "src/system/harness.hh"
#include "src/system/system.hh"

namespace {

using namespace jumanji;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ JSON out

/** A finite number, or null: JSON has no NaN or infinity. */
JsonValue
number(double v)
{
    return std::isfinite(v) ? JsonValue::makeNumber(v) : JsonValue();
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

JsonValue
stringArray(const std::vector<std::string> &items)
{
    JsonValue a = JsonValue::makeArray();
    for (const std::string &s : items) a.push(JsonValue::makeString(s));
    return a;
}

// ------------------------------------------------------------ options

struct Options
{
    std::string mode;
    std::string scenario;
    std::string workDir = ".";
    std::string out;
    std::uint32_t mixes = 1;
    std::uint32_t jobs = 1;
    std::uint64_t seed = 1;
    double minSeconds = 0.0;
    std::uint32_t minSetups = 1;
    std::vector<std::size_t> probeJobs;
};

/** AppModel steps drawn per probed System. */
constexpr std::size_t kProbeSteps = 600000;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bench_driver: %s\n"
                 "usage: bench_driver run|trace --scenario FILE "
                 "--mixes N --seed S --jobs J [--min-seconds R] "
                 "[--min-setups K] [--probe-jobs a,b] --work-dir D "
                 "--out FILE\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') usage("bad value for " + flag);
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    if (argc < 2) usage("missing mode");
    o.mode = argv[1];
    if (o.mode != "run" && o.mode != "trace") usage("unknown mode");
    for (int i = 2; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        std::string v = argv[++i];
        if (flag == "--scenario") o.scenario = v;
        else if (flag == "--work-dir") o.workDir = v;
        else if (flag == "--out") o.out = v;
        else if (flag == "--mixes") o.mixes = static_cast<std::uint32_t>(parseUint(flag, v));
        else if (flag == "--jobs") o.jobs = static_cast<std::uint32_t>(parseUint(flag, v));
        else if (flag == "--seed") o.seed = parseUint(flag, v);
        else if (flag == "--min-seconds") o.minSeconds = static_cast<double>(parseUint(flag, v));
        else if (flag == "--min-setups") o.minSetups = static_cast<std::uint32_t>(parseUint(flag, v));
        else if (flag == "--probe-jobs") {
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                o.probeJobs.push_back(parseUint(flag, item));
        } else usage("unknown flag " + flag);
    }
    if (o.scenario.empty() || o.out.empty()) usage("need --scenario and --out");
    if (o.jobs == 0 || o.mixes == 0 || o.seed == 0) usage("jobs, mixes and seed must be >= 1");
    return o;
}

// ------------------------------------------------------------ set-up

/** The scenario with the benchmark's seed and mix count written in. */
driver::ExperimentSpec
loadSpec(const Options &o)
{
    std::ifstream is(o.scenario);
    if (!is) fatal("cannot open " + o.scenario);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    driver::ExperimentSpec spec =
        driver::ExperimentSpec::fromJson(JsonValue::parse(text, o.scenario));
    spec.seed.fromEnv = false;
    spec.seed.fallback = o.seed;
    spec.mixes.fromEnv = false;
    spec.mixes.count = o.mixes;
    return spec;
}

/**
 * Hands each job the shared calibrations it needs, consuming the
 * plan in its first-seen (variant, app) order — the same walk
 * driver::runSpec does before it runs the graph.
 */
void
fillCalibrations(const driver::ExperimentSpec &spec, driver::SpecPlan &plan,
                 const std::vector<LcCalibration> &calibrations)
{
    std::size_t perVariant =
        spec.loads.size() * spec.groups.size() * plan.mixCount;
    std::vector<LcCalibrationMap> byVariant(spec.variants.size());
    std::size_t next = 0;
    for (driver::JobId id = 0; id < plan.graph.size(); id++) {
        std::size_t v = id / perVariant;
        driver::SweepJob &job = plan.graph.mutableJob(id);
        for (const VmSpec &vm : job.mix.vms) {
            for (const std::string &lc : vm.lcApps) {
                if (byVariant[v].find(lc) == byVariant[v].end()) {
                    if (next >= plan.calibrationPlan.size() ||
                        plan.calibrationPlan[next].lcName != lc)
                        fatal("calibration plan out of step at " + job.label);
                    byVariant[v][lc] = calibrations[next++];
                }
                job.calibrations[lc] = byVariant[v][lc];
            }
        }
    }
}

struct Setup
{
    driver::ExperimentSpec spec;
    driver::SpecPlan plan;
    double expandS = 0.0;
};

/** Spec parse + expandSpec + shared calibrations: the set-up phase. */
Setup
setUp(const Options &o, driver::Orchestrator &orch)
{
    Setup s;
    s.spec = loadSpec(o);
    Clock::time_point t0 = Clock::now();
    s.plan = driver::expandSpec(s.spec);
    s.expandS = secondsSince(t0);
    if (s.spec.calibration == driver::CalibrationMode::Shared) {
        fillCalibrations(s.spec, s.plan,
                         orch.runCalibrations(s.plan.calibrationPlan));
    }
    return s;
}

// ------------------------------------------------------------ one pass

struct Pass
{
    double wallS = 0.0;
    double setupS = 0.0;
    double expandS = 0.0;
    double accesses = 0.0;
    std::string fingerprint;
    std::vector<std::string> jobFingerprints;
    /** One entry per job; empty when the job succeeded. */
    std::vector<std::string> errors;
    /** Set when the pass failed outside any one job. */
    std::string passError;
    std::string table;
    std::string eventsPath;

    JsonValue
    json() const
    {
        JsonValue o = JsonValue::makeObject();
        o.set("wall_s", number(wallS));
        o.set("setup_s", number(setupS));
        o.set("expand_s", number(expandS));
        o.set("accesses", number(accesses));
        o.set("fingerprint", JsonValue::makeString(fingerprint));
        o.set("job_fingerprints", stringArray(jobFingerprints));
        o.set("job_errors", stringArray(errors));
        o.set("pass_error", JsonValue::makeString(passError));
        o.set("table", JsonValue::makeString(table));
        o.set("events", JsonValue::makeString(eventsPath));
        return o;
    }
};

/** What a traced pass keeps for the ledger and the probes. */
struct Kept
{
    driver::SpecPlan plan;
    std::vector<MixResult> results;
};

/**
 * One full user-visible pass: spec load to rendered table. With
 * @p profile the scoped profiler records the job phase. Job
 * failures are recorded, never thrown.
 */
Pass
runPass(const Options &o, const std::string &eventsPath, bool profile,
        Kept *kept)
{
    Pass p;
    p.eventsPath = eventsPath;
    std::remove(eventsPath.c_str());
    Clock::time_point t0 = Clock::now();
    try {
        driver::Orchestrator::Options oo;
        oo.jobs = o.jobs;
        oo.telemetry.eventsPath = eventsPath;
        driver::Orchestrator orch(oo);
        Setup s = setUp(o, orch);
        p.expandS = s.expandS;
        p.setupS = secondsSince(t0);

        if (profile) {
            prof::aggregateProfile().reset();
            prof::setProfilingEnabled(true);
        }
        std::vector<driver::JobOutcome> outcomes = orch.run(s.plan.graph);
        if (profile) {
            prof::setProfilingEnabled(false);
            prof::flushThreadProfile();
        }

        driver::SpecRun run;
        run.plan = std::move(s.plan);
        bool allOk = true;
        for (const driver::JobOutcome &out : outcomes) {
            p.errors.push_back(out.ok ? "" : out.error);
            allOk = allOk && out.ok;
            run.results.push_back(out.result);
            Fingerprint fp;
            fingerprintMix(fp, out.result);
            p.jobFingerprints.push_back(out.ok ? hex(fp.value()) : "");
            if (!out.ok) continue;
            for (const DesignResult &d : out.result.designs)
                p.accesses += d.run.stat("llc.hits") + d.run.stat("llc.misses");
        }
        if (allOk) {
            p.fingerprint = hex(fingerprintResults(run.results));
            p.table = driver::renderSpec(s.spec, run);
        }
        if (kept != nullptr) {
            kept->plan = std::move(run.plan);
            kept->results = std::move(run.results);
        }
    } catch (const std::exception &e) {
        p.passError = e.what();
    }
    p.wallS = secondsSince(t0);
    return p;
}

// ------------------------------------------------------------ op counts

/** "llc.bank03.hits" -> "llc.bankNN.hits": sums per-instance stats. */
std::string
collapseDigits(const std::string &name)
{
    std::string out;
    for (std::size_t i = 0; i < name.size(); i++) {
        if (name[i] >= '0' && name[i] <= '9') {
            while (i + 1 < name.size() && name[i + 1] >= '0' &&
                   name[i + 1] <= '9')
                i++;
            out += "NN";
        } else {
            out += name[i];
        }
    }
    return out;
}

/** Per design: every non-per-app stat summed over jobs and instances. */
JsonValue
countsJson(const std::vector<MixResult> &results)
{
    std::map<std::string, std::map<std::string, double>> byDesign;
    std::map<std::string, double> runs;
    for (const MixResult &mix : results) {
        for (const DesignResult &d : mix.designs) {
            std::string design = llcDesignName(d.design);
            runs[design] += 1.0;
            auto &sums = byDesign[design];
            for (const StatValue &sv : d.run.statDump) {
                if (sv.name.rfind("apps.", 0) == 0 ||
                    sv.name.rfind("runtime.vc", 0) == 0)
                    continue;
                sums[collapseDigits(sv.name)] += sv.value;
            }
        }
    }
    JsonValue all = JsonValue::makeObject();
    for (const auto &[design, sums] : byDesign) {
        JsonValue o = JsonValue::makeObject();
        o.set("runs", number(runs[design]));
        for (const auto &[name, value] : sums) o.set(name, number(value));
        all.set(design, std::move(o));
    }
    return all;
}

// ------------------------------------------------------------ probes

/** One post-L2 access drawn from a probed System's own apps. */
struct StreamAccess
{
    std::uint32_t tile;
    AccessOwner owner;
    LineAddr line;
    Tick issue;
    Tick burst;
    /** Core stall after issue: the app's run latency x stallFactor. */
    Tick stall;
};

/** One AppModel step of the probe's emulation, as the kernel sees it. */
struct EmulatedStep
{
    /** Ticks to the core's next resume (steps without an access). */
    Tick gap;
    /** Index into the stream, or kNoAccess. */
    std::size_t access;
};

constexpr std::size_t kNoAccess = ~std::size_t{0};

double
nsPer(Clock::time_point start, std::size_t ops)
{
    double ns = secondsSince(start) * 1e9;
    return ops == 0 ? 0.0 : ns / static_cast<double>(ops);
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Replays recorded inter-event gaps: the kernel probe's agent. */
class GapAgent : public Agent
{
  public:
    GapAgent(const std::vector<Tick> &gaps, std::size_t offset,
             std::uint64_t *budget)
        : gaps_(gaps), next_(offset), budget_(budget)
    {
    }

    Tick
    resume(Tick now) override
    {
        if (*budget_ == 0) return kTickMax;
        (*budget_)--;
        Tick gap = gaps_[next_];
        if (++next_ == gaps_.size()) next_ = 0;
        return now + gap;
    }

  private:
    const std::vector<Tick> &gaps_;
    std::size_t next_;
    std::uint64_t *budget_;
};

/**
 * Builds one job's System for @p design, warms it for warmupTicks,
 * and times calls into each layer's public functions on inputs taken
 * from that System: its apps' own address streams, its bank
 * geometry, replacement policy, way masks, UMONs, mesh and memory.
 * Each core is paced as in @p mix's measured run of @p design: its
 * app's mean LLC access latency there, times the app's stallFactor.
 * The System is a disposable copy; the probes mutate it freely.
 */
JsonValue
probeSystem(const driver::SweepJob &job, std::size_t jobIndex,
            LlcDesign design, const MixResult &mix)
{
    SystemConfig cfg = job.config;
    cfg.design = design;
    cfg.load = job.load;
    Clock::time_point tc = Clock::now();
    System sys(cfg, job.mix, job.calibrations);
    double constructMs = secondsSince(tc) * 1e3;

    CheckContextScope scope;
    sys.runUntil(cfg.warmupTicks);
    MemPath &path = sys.memPath();
    const auto &cores = sys.cores();
    const Tick base = sys.queue().now();

    // Per core: the run's mean access latency (request traversal +
    // bank/memory + response, as CoreModel sees it).
    std::vector<double> runLatency(cores.size(), 1.0);
    for (const DesignResult &d : mix.designs) {
        if (d.design != design) continue;
        for (std::size_t c = 0; c < cores.size() && c < d.run.apps.size(); c++)
            runLatency[c] = std::max(1.0, d.run.apps[c].avgAccessLatency);
    }

    // workloads: AppModel::next (+ onAccessComplete) on the System's
    // own apps, cores advanced together in time slices. Every step is
    // recorded for the kernel probe below.
    std::vector<StreamAccess> stream;
    stream.reserve(kProbeSteps);
    std::vector<EmulatedStep> emulated;
    emulated.reserve(kProbeSteps);
    std::vector<Tick> coreNow(cores.size(), base);
    Rng rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
    std::size_t steps = 0;
    Tick slice = base;
    Clock::time_point tw = Clock::now();
    for (std::size_t rounds = 0; steps < kProbeSteps && rounds < 10000000;
         rounds++) {
        slice += 1000;
        for (std::size_t c = 0; c < cores.size(); c++) {
            AppModel &app = cores[c]->app();
            while (coreNow[c] < slice && steps < kProbeSteps) {
                AppStep s = app.next(coreNow[c], rng);
                steps++;
                if (s.kind == AppStep::Kind::Idle) {
                    Tick wake = std::max(s.wakeTick, coreNow[c] + 1);
                    emulated.push_back({wake - coreNow[c], kNoAccess});
                    coreNow[c] = wake;
                    continue;
                }
                const AppTraits &tr = app.traits();
                Tick burst = static_cast<Tick>(std::ceil(
                    static_cast<double>(s.instrs) / tr.baseIpc));
                if (s.access) {
                    Tick issue = coreNow[c] + burst;
                    Tick stall = std::max<Tick>(1, static_cast<Tick>(
                        std::ceil(runLatency[c] * tr.stallFactor)));
                    emulated.push_back({0, stream.size()});
                    stream.push_back({static_cast<std::uint32_t>(cores[c]->id()),
                                      cores[c]->owner(), *s.access, issue,
                                      burst, stall});
                    app.onAccessComplete(
                        issue + static_cast<Tick>(std::llround(runLatency[c])));
                    coreNow[c] = issue + stall;
                } else {
                    Tick gap = std::max<Tick>(burst, 1);
                    emulated.push_back({gap, kNoAccess});
                    coreNow[c] += gap;
                }
            }
        }
    }
    double nsPerStep = nsPer(tw, steps);
    double stepsPerAccess = stream.empty()
        ? 0.0 : static_cast<double>(steps) / static_cast<double>(stream.size());

    // The first half of the stream feeds the component probes (cache,
    // UMON, NoC, memory), the second half the inclusive MemPath ones,
    // so each half meets the cache state the other left behind, as a
    // continuing run would.
    std::size_t half = stream.size() / 2;
    std::vector<BankId> banks(half);
    std::vector<Tick> traversal(stream.size());
    for (std::size_t i = 0; i < half; i++) {
        MemPath::Route route = path.planAccess(
            stream[i].tile, stream[i].owner.vc, stream[i].line);
        banks[i] = route.bank;
        traversal[i] = route.traversal;
    }

    // cache: CacheArray::access on the warmed banks.
    std::uint64_t cacheHits = 0;
    std::vector<std::size_t> misses;
    Clock::time_point tk = Clock::now();
    for (std::size_t i = 0; i < half; i++) {
        ArrayAccessResult r = path.bank(banks[i]).array().access(
            stream[i].line, stream[i].owner);
        if (r.hit) cacheHits++;
        else misses.push_back(i);
    }
    double nsPerCache = nsPer(tk, half);

    // dnuca: Umon::access on each VC's own monitor. MemPath calls it
    // on every LLC access of a VC that has one; the share of such
    // accesses prices the run's UMON work.
    std::vector<Umon *> umons(half, nullptr);
    for (std::size_t i = 0; i < half; i++)
        if (path.hasUmon(stream[i].owner.vc))
            umons[i] = &path.umon(stream[i].owner.vc);
    std::size_t umonOps = 0;
    Clock::time_point tu = Clock::now();
    for (std::size_t i = 0; i < half; i++) {
        if (umons[i] == nullptr) continue;
        umons[i]->access(stream[i].line);
        umonOps++;
    }
    double nsPerUmon = nsPer(tu, umonOps);

    // noc: one route = hops + traversal latency for a core/bank pair.
    // Results are summed into `sink` and emitted, so the compiler
    // cannot drop the timed calls.
    const MeshTopology &mesh = path.mesh();
    Tick sink = 0;
    Clock::time_point tn = Clock::now();
    for (std::size_t i = 0; i < half; i++) {
        std::uint32_t h = mesh.hops(stream[i].tile,
                                    static_cast<std::uint32_t>(banks[i]));
        sink += mesh.traversalLatency(h);
    }
    double nsPerRoute = nsPer(tn, half);

    // mem: MemorySystem::access for the cache probe's misses.
    MemorySystem &memory = path.memory();
    Tick memNow = base;
    Clock::time_point tm = Clock::now();
    for (std::size_t i : misses) {
        memNow = std::max(memNow, stream[i].issue);
        sink += memory.access(memNow, stream[i].line, stream[i].owner.vm,
                              stream[i].owner.latencyCritical).latency;
    }
    double nsPerMem = nsPer(tm, misses.size());

    // cpu: MemPath::planAccess, then the inclusive accessArrived.
    std::size_t rest = stream.size() - half;
    Clock::time_point tp = Clock::now();
    for (std::size_t i = half; i < stream.size(); i++)
        traversal[i] = path.planAccess(stream[i].tile, stream[i].owner.vc,
                                       stream[i].line).traversal;
    double nsPerPlan = nsPer(tp, rest);
    std::uint64_t arriveHits = 0;
    Tick arriveNow = base;
    Clock::time_point ta = Clock::now();
    for (std::size_t i = half; i < stream.size(); i++) {
        arriveNow = std::max(arriveNow, stream[i].issue);
        PathAccessResult r = path.accessArrived(
            arriveNow, stream[i].tile, stream[i].owner, stream[i].line);
        sink += r.latency;
        arriveHits += r.llcHit ? 1 : 0;
    }
    double nsPerArrive = nsPer(ta, rest);

    // sim: EventQueue schedule/runUntil with the System's agent count,
    // replaying the emulated steps' gaps as CoreModel schedules them:
    // an access step resumes at bank arrival (burst + the planned
    // traversal) and again at issue + stall.
    std::vector<Tick> gaps;
    gaps.reserve(emulated.size() + stream.size());
    for (const EmulatedStep &e : emulated) {
        if (e.access == kNoAccess) {
            gaps.push_back(e.gap);
            continue;
        }
        const StreamAccess &a = stream[e.access];
        Tick t = traversal[e.access];
        gaps.push_back(std::max<Tick>(1, a.burst + t));
        gaps.push_back(a.stall > t ? a.stall - t : 1);
    }
    if (gaps.empty()) gaps.push_back(1);
    std::size_t agents = cores.size() + 2 + (sys.kvApps().empty() ? 0 : 1);
    const std::uint64_t kEvents = 2000000;
    std::uint64_t budget = kEvents;
    std::vector<std::unique_ptr<GapAgent>> gapAgents;
    EventQueue queue;
    for (std::size_t a = 0; a < agents; a++) {
        gapAgents.push_back(std::make_unique<GapAgent>(
            gaps, (a * gaps.size()) / agents, &budget));
        queue.schedule(gapAgents.back().get(), a);
    }
    Clock::time_point te = Clock::now();
    queue.runToCompletion();
    double nsPerEvent = nsPer(te, kEvents);

    // core: LlcPolicy::reconfigure on EpochInputs built from the
    // warmed System's UMON curves, then MemPath::installPlacement.
    EpochInputs in;
    in.geo.banks = path.numBanks();
    in.geo.waysPerBank = path.bank(0).constArray().numWays();
    in.geo.linesPerBank = path.linesPerBank();
    in.mesh = &path.mesh();
    for (const auto &core : cores) {
        const AccessOwner &owner = core->owner();
        if (!path.hasUmon(owner.vc)) continue;
        VcInfo vc;
        vc.vc = owner.vc;
        vc.app = owner.app;
        vc.vm = owner.vm;
        vc.coreTile = static_cast<std::uint32_t>(core->id());
        vc.latencyCritical = owner.latencyCritical;
        vc.name = core->constApp().name();
        vc.curve = path.umon(owner.vc).missCurve().convexHull();
        in.geo.linesPerBucket = path.umon(owner.vc).linesPerBucket();
        if (owner.latencyCritical) {
            if (FeedbackController *fc = sys.runtime().controller(owner.vc))
                vc.targetLines = fc->targetLines();
        }
        in.vcs.push_back(std::move(vc));
    }
    std::vector<double> policyUs;
    PlacementPlan plan;
    std::unique_ptr<LlcPolicy> policy = LlcPolicy::create(design);
    for (int k = 0; k < 5; k++) {
        Clock::time_point tr = Clock::now();
        plan = policy->reconfigure(in);
        policyUs.push_back(secondsSince(tr) * 1e6);
    }
    std::size_t installs = 0;
    Clock::time_point ti = Clock::now();
    for (const auto &[vc, desc] : plan.descriptors) {
        path.installPlacement(vc, desc);
        installs++;
    }
    double usPerInstall = installs == 0
        ? 0.0 : secondsSince(ti) * 1e6 / static_cast<double>(installs);

    // cache, coherence walk: invalidate the largest VC everywhere.
    VcId victim = kInvalidVc;
    std::uint64_t largest = 0;
    for (const auto &core : cores) {
        std::uint64_t lines = 0;
        for (std::uint32_t b = 0; b < path.numBanks(); b++)
            lines += path.bank(b).constArray().occupancyOfVc(core->owner().vc);
        if (lines > largest) {
            largest = lines;
            victim = core->owner().vc;
        }
    }
    std::uint64_t invalidated = 0;
    Clock::time_point tv = Clock::now();
    for (std::uint32_t b = 0; b < path.numBanks(); b++)
        invalidated += path.bank(b).array().invalidateVc(victim);
    double nsPerInvalidate = nsPer(tv, invalidated);

    JsonValue o = JsonValue::makeObject();
    auto put = [&o](const char *key, double v) { o.set(key, number(v)); };
    put("job", static_cast<double>(jobIndex));
    o.set("design", JsonValue::makeString(llcDesignName(design)));
    put("construct_ms", constructMs);
    put("steps", static_cast<double>(steps));
    put("stream_accesses", static_cast<double>(stream.size()));
    put("ns_per_step", nsPerStep);
    put("steps_per_access", stepsPerAccess);
    put("agents", static_cast<double>(agents));
    put("ns_per_event", nsPerEvent);
    put("ns_per_plan", nsPerPlan);
    put("ns_per_arrive", nsPerArrive);
    put("arrive_hit_ratio",
        rest ? static_cast<double>(arriveHits) / static_cast<double>(rest) : 0.0);
    put("ns_per_cache_access", nsPerCache);
    put("cache_hit_ratio",
        half ? static_cast<double>(cacheHits) / static_cast<double>(half) : 0.0);
    put("umon_access_share",
        half ? static_cast<double>(umonOps) / static_cast<double>(half) : 0.0);
    put("ns_per_umon_access", nsPerUmon);
    put("ns_per_route", nsPerRoute);
    put("ns_per_mem_access", nsPerMem);
    put("us_per_policy_reconfigure", median(policyUs));
    put("us_per_install", usPerInstall);
    put("ns_per_invalidate", nsPerInvalidate);
    put("invalidated_lines", static_cast<double>(invalidated));
    put("sink", static_cast<double>(sink % 2));
    return o;
}

JsonValue
profileJson()
{
    JsonValue scopes = JsonValue::makeArray();
    for (const prof::ScopeTotals &t : prof::aggregateProfile().totals()) {
        JsonValue o = JsonValue::makeObject();
        o.set("name", JsonValue::makeString(t.name));
        o.set("calls", number(static_cast<double>(t.calls)));
        o.set("inclusive_s", number(t.inclusiveNs * 1e-9));
        o.set("exclusive_s", number(t.exclusiveNs * 1e-9));
        scopes.push(std::move(o));
    }
    return scopes;
}

/** The fields both modes' documents start with. */
JsonValue
header(const Options &o)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("mode", JsonValue::makeString(o.mode));
    doc.set("jobs", number(o.jobs));
    doc.set("mixes", number(o.mixes));
    doc.set("seed", number(static_cast<double>(o.seed)));
    return doc;
}

double
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

std::string
eventsFile(const Options &o, const std::string &tag)
{
    return o.workDir + "/events-" + tag + ".jsonl";
}

/**
 * Untraced passes until minSeconds have elapsed (at least one; a new
 * pass starts only while half a pass still fits), plus set-up-only
 * repetitions until minSetups set-up samples exist.
 */
JsonValue
runMode(const Options &o)
{
    JsonValue passes = JsonValue::makeArray();
    std::vector<double> setups;
    Clock::time_point start = Clock::now();
    double passTotal = 0.0;
    for (std::size_t i = 0;; i++) {
        Pass p = runPass(o, eventsFile(o, "pass" + std::to_string(i)),
                         false, nullptr);
        passes.push(p.json());
        setups.push_back(p.setupS);
        passTotal += p.wallS;
        double elapsed = secondsSince(start);
        double meanPass = passTotal / static_cast<double>(i + 1);
        if (!p.passError.empty() || elapsed + 0.5 * meanPass > o.minSeconds)
            break;
    }
    try {
        while (setups.size() < o.minSetups) {
            Clock::time_point t0 = Clock::now();
            driver::Orchestrator::Options oo;
            oo.jobs = o.jobs;
            driver::Orchestrator orch(oo);
            setUp(o, orch);
            setups.push_back(secondsSince(t0));
        }
    } catch (const std::exception &) {
        // The passes already record the failure; keep their samples.
    }
    JsonValue setupNums = JsonValue::makeArray();
    for (double s : setups) setupNums.push(number(s));
    JsonValue doc = header(o);
    doc.set("peak_rss_kb", number(peakRssKb()));
    doc.set("setups", std::move(setupNums));
    doc.set("passes", std::move(passes));
    return doc;
}

/**
 * One untraced pass, one traced pass (profiler on for the job
 * phase), then the layer probes on the traced pass's own jobs.
 */
JsonValue
traceMode(const Options &o)
{
    Pass untraced = runPass(o, eventsFile(o, "untraced"), false, nullptr);
    Kept kept;
    Pass traced = runPass(o, eventsFile(o, "traced"), true, &kept);
    JsonValue profile = profileJson();

    JsonValue probes = JsonValue::makeArray();
    if (traced.passError.empty()) {
        for (std::size_t j : o.probeJobs) {
            if (j >= kept.plan.graph.size() || j >= kept.results.size())
                continue;
            const driver::SweepJob &job =
                kept.plan.graph.job(static_cast<driver::JobId>(j));
            std::vector<LlcDesign> designs = {LlcDesign::Static};
            for (LlcDesign d : job.designs)
                if (d != LlcDesign::Static) designs.push_back(d);
            for (LlcDesign d : designs)
                probes.push(probeSystem(job, j, d, kept.results[j]));
        }
    }
    JsonValue passes = JsonValue::makeArray();
    passes.push(untraced.json());
    passes.push(traced.json());
    JsonValue doc = header(o);
    doc.set("peak_rss_kb", number(peakRssKb()));
    doc.set("passes", std::move(passes));
    doc.set("profile", std::move(profile));
    doc.set("counts", countsJson(kept.results));
    doc.set("probes", std::move(probes));
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    setQuiet(true);
    try {
        loadSpec(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_driver: %s\n", e.what());
        return 2;
    }
    JsonValue doc = o.mode == "run" ? runMode(o) : traceMode(o);
    std::ofstream os(o.out);
    if (!os) {
        std::fprintf(stderr, "bench_driver: cannot write %s\n", o.out.c_str());
        return 2;
    }
    os << doc.dump(-1) << "\n";
    return os.good() ? 0 : 2;
}
