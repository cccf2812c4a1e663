/**
 * @file
 * jumanji_cli: run custom experiments from the command line.
 *
 * Usage:
 *   jumanji_cli [options]
 *     --scenario <file>    run a declarative scenario document (an
 *                          ExperimentSpec JSON, see
 *                          examples/scenarios/ and docs/INTERNALS.md
 *                          §12) through the orchestrator and print
 *                          its report; --jobs/--cache-dir,
 *                          --selfcheck and the observability
 *                          exports apply. The grid
 *                          flags below (--design ... --sweep) do not:
 *                          the file defines the grid, so giving one
 *                          exits 2. An invalid scenario exits 2 with
 *                          a "field: reason" diagnostic on stderr.
 *     --scenario-check <file>
 *                          parse, validate, and expand a scenario
 *                          without simulating; prints the grid shape
 *                          and exits 0 iff the document is valid
 *     --design <name>      Static|Adaptive|VM-Part|Jigsaw|Jumanji|
 *                          Insecure|IdealBatch (default: all four
 *                          main designs; Static always runs first as
 *                          the normalization baseline)
 *     --lc <name|Mixed>    latency-critical app selection: a
 *                          TailBench-like app
 *                          (masstree|xapian|img-dnn|silo|moses), a
 *                          KV-serving app (kv_small, kv_ycsb_a..f;
 *                          see --list-apps), or Mixed = the five
 *                          TailBench apps
 *     --list-apps          print the latency-critical (TailBench +
 *                          KV) and batch (SPEC-like) app catalogs
 *                          with footprint and access intensity, then
 *                          exit
 *     --load <low|high>    offered load (default high)
 *     --vms <n>            number of VMs (default 4)
 *     --batch <n>          batch apps per VM, 0..64 (default 4)
 *     --mixes <n>          random batch mixes (default 3)
 *     --seed <n>           base seed, 1..2^64-1 (default 1)
 *     --paper-scale        use the full Table II capacity/time scale
 *     --jobs <n>           worker threads, 1..1024 (default
 *                          $JUMANJI_JOBS or 1); output is
 *                          byte-identical for any job count
 *     --cache-dir <dir>    on-disk result cache keyed by
 *                          Fingerprint(code version, config, mix)
 *                          (default $JUMANJI_CACHE_DIR; unset = off)
 *     --sweep              use the paper's standard sweep methodology
 *                          (each LC app calibrated once, with the
 *                          config of the first mix that contains it,
 *                          and shared across mixes) instead of the
 *                          default independent per-mix calibration
 *     --selfcheck          run the experiment twice and compare stats
 *                          fingerprints (determinism self-check;
 *                          bypasses the result cache)
 *     --stats-json <file>  write the full hierarchical stats registry
 *                          of every run as nested JSON
 *     --timeline-csv <file> write the per-epoch recorder series of
 *                          every run as one long-format CSV
 *     --trace-out <file>   write a Chrome trace-event JSON covering
 *                          all runs (chrome://tracing / Perfetto)
 *     --profile <file>     enable the host-side scope profiler
 *                          (src/sim/profiler.hh) and write its
 *                          aggregated JSON report (where the wall
 *                          time went: sim.run, sim.calibrate,
 *                          sim.epoch.repartition, driver.*) at exit
 *     --events-out <file>  append one JSONL record per calibration,
 *                          per job (queue wait, cache probe,
 *                          simulate durations, cache hit/miss,
 *                          worker id), and per orchestrator run
 *                          (default $JUMANJI_EVENTS; unset = off)
 *     --heartbeat-ms <n>   rate-limited stderr progress heartbeat
 *                          for long sweeps: jobs done/total,
 *                          accesses/s, ETA (default
 *                          $JUMANJI_HEARTBEAT_MS; 0 = off)
 *
 * Integer flags must be a whole decimal number in their range;
 * anything else (a sign, trailing junk, 0 for --seed) exits 2 with a
 * message naming the flag.
 *
 * Without --scenario the flags build an ExperimentSpec (one LC group
 * at one load; seed and mix count exactly as given, so JUMANJI_SEED
 * and JUMANJI_MIXES do not apply, while JUMANJI_KV_LOAD_SCALE does)
 * and run it like any scenario. It prints one row per design: tail
 * ratio (mean/worst over LC apps), gmean batch weighted speedup vs.
 * Static, and attackers/access.
 *
 * None of the profiling/telemetry outputs feed back into results:
 * tables, fingerprints, and the result cache are byte-identical
 * with them on or off (docs/INTERNALS.md §13). Wall-clock
 * benchmarking is perfbench/'s job (python3 perfbench/run.py); the
 * --events-out log carries each job's simulated accesses and each
 * run's wall seconds.
 *
 * With --selfcheck, instead prints the two FNV-1a fingerprints of the
 * full stats stream and exits 0 iff they match: reproducibility from
 * (seed, config) alone is a hard project invariant (see
 * docs/INTERNALS.md).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/profiler.hh"
#include "src/sim/statreg.hh"
#include "src/sim/tracing.hh"
#include "src/system/harness.hh"
#include "src/workloads/kv/kv_store.hh"
#include "src/workloads/spec_like.hh"
#include "src/workloads/tail_latency.hh"

using namespace jumanji;

namespace {

[[noreturn]] void
usage(const char *argv0, int exitCode = 2)
{
    std::fprintf(exitCode == 0 ? stdout : stderr,
                 "usage: %s [--scenario FILE] [--scenario-check FILE] "
                 "[--design <name>] [--lc <name|Mixed>] [--list-apps] "
                 "[--load low|high] [--vms N] [--batch N] [--mixes N] "
                 "[--seed N] [--paper-scale] [--jobs N] "
                 "[--cache-dir DIR] [--sweep] [--selfcheck] "
                 "[--stats-json FILE] [--timeline-csv FILE] "
                 "[--trace-out FILE] "
                 "[--profile FILE] [--events-out FILE] "
                 "[--heartbeat-ms N]\n",
                 argv0);
    std::exit(exitCode);
}

/** Loads and validates a scenario document (fatal on any error). */
driver::ExperimentSpec
loadScenario(const std::string &path)
{
    std::ifstream is(path);
    if (!is) fatal("cannot open " + path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return driver::ExperimentSpec::fromJson(JsonValue::parse(text, path));
}

/** Resident footprint of a working-set mixture, in MB (streaming
 *  sets are unbounded compulsory-miss traffic, so they are excluded
 *  — the same accounting AddressStream::footprintLines uses). */
double
footprintMB(const std::vector<WorkingSet> &sets)
{
    std::uint64_t lines = 0;
    for (const WorkingSet &ws : sets)
        if (!ws.streaming) lines += ws.lines;
    return static_cast<double>(lines) * 64.0 / (1024.0 * 1024.0);
}

/**
 * --list-apps: the three app catalogs a mix can draw from, with the
 * two numbers that determine cache behavior — resident footprint and
 * access intensity (LLC accesses per kilo-instruction).
 */
int
listApps()
{
    std::printf("%-10s %-14s %14s %8s\n", "kind", "name",
                "footprint(MB)", "apki");
    for (const TailAppParams &p : tailAppCatalog())
        std::printf("%-10s %-14s %14.2f %8.1f\n", "lc/tail",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    for (const KvAppParams &kv : kvAppCatalog()) {
        const TailAppParams &p = kvTailAppParams(kv.name);
        std::printf("%-10s %-14s %14.2f %8.1f\n", "lc/kv",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    }
    for (const SpecAppParams &p : specAppCatalog())
        std::printf("%-10s %-14s %14.2f %8.1f\n", "batch",
                    p.name.c_str(), footprintMB(p.workingSets), p.apki);
    return 0;
}

/** "%.17g"-style round-trip formatting, integers without a fraction. */
std::string
csvNumber(double v)
{
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -9.0e15 && v < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

/**
 * {"mixes": [{"index": N, "designs": [{"design": ...,
 * "stats": <nested registry dump>}, ...]}, ...]}
 */
void
writeStatsJson(std::ostream &os, const std::vector<MixResult> &results)
{
    os << "{\"mixes\": [";
    for (std::size_t m = 0; m < results.size(); m++) {
        os << (m ? "," : "") << "\n  {\"index\": " << m
           << ", \"designs\": [";
        const auto &designs = results[m].designs;
        for (std::size_t d = 0; d < designs.size(); d++) {
            os << (d ? "," : "") << "\n    {\"design\": \""
               << llcDesignName(designs[d].design)
               << "\", \"stats\": ";
            writeNestedStatsJson(os, designs[d].run.statDump, 2);
            os << "}";
        }
        os << "\n  ]}";
    }
    os << "\n]}\n";
}

/**
 * Long-format CSV: mix,design,epoch,tick,<col>,... One header per
 * column set; a new header is emitted if a run's columns ever differ
 * (they should not — selectors are fixed — but a silent mismatch
 * would corrupt every later row).
 */
void
writeTimelineCsv(std::ostream &os, const std::vector<MixResult> &results)
{
    const std::vector<std::string> *header = nullptr;
    for (std::size_t m = 0; m < results.size(); m++) {
        for (const auto &d : results[m].designs) {
            const TimelineSeries &ts = d.run.timeline;
            if (ts.empty()) continue;
            if (header == nullptr || ts.columns != *header) {
                os << "mix,design,epoch,tick";
                for (const auto &c : ts.columns) os << ',' << c;
                os << '\n';
                header = &ts.columns;
            }
            for (std::size_t r = 0; r < ts.rows.size(); r++) {
                os << m << ',' << llcDesignName(d.design) << ',' << r
                   << ',' << ts.ticks[r];
                for (double v : ts.rows[r]) os << ',' << csvNumber(v);
                os << '\n';
            }
        }
    }
}

/**
 * Flushes the main thread's scopes into the process aggregate (the
 * pool already flushed each worker at drain) and writes the profile
 * report. No-op without --profile.
 */
void
writeProfileJson(const std::string &path)
{
    if (path.empty()) return;
    prof::flushThreadProfile();
    std::ofstream os(path);
    if (!os) fatal("cannot open " + path);
    prof::aggregateProfile().writeJson(os);
}

LlcDesign
parseDesign(const std::string &name)
{
    if (name == "Static") return LlcDesign::Static;
    if (name == "Adaptive") return LlcDesign::Adaptive;
    if (name == "VM-Part") return LlcDesign::VMPart;
    if (name == "Jigsaw") return LlcDesign::Jigsaw;
    if (name == "Jumanji") return LlcDesign::Jumanji;
    if (name == "Insecure") return LlcDesign::JumanjiInsecure;
    if (name == "IdealBatch") return LlcDesign::JumanjiIdealBatch;
    fatal("unknown design: " + name);
}

/**
 * Parses the value of integer flag @p flag with parseWholeDecimal in
 * [@p lo, @p hi] (the env-knob rule). Anything else is fatal and
 * names the flag.
 */
std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (!parseWholeDecimal(text, lo, hi, v))
        fatal(flag + ": expected an integer in [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "], got \"" + text + "\"");
    return v;
}

/** Flags that shape the ad-hoc grid; a scenario file defines its own. */
bool
isGridFlag(const std::string &arg)
{
    for (const char *flag :
         {"--design", "--lc", "--load", "--vms", "--batch", "--mixes",
          "--seed", "--paper-scale", "--sweep"})
        if (arg == flag) return true;
    return false;
}

/**
 * The ad-hoc grid before any flag is applied: 3 salted mixes of
 * xapian + 4 VMs x 4 batch apps at high load, seed 1, no env
 * overrides of seed or mix count. Every mix is an independent job
 * that calibrates from its own config; --sweep shares calibrations
 * across mixes instead. designs holds Static only: the --design
 * list (or the four main designs) follows it.
 */
driver::ExperimentSpec
adhocSpec()
{
    driver::ExperimentSpec spec;
    spec.name = "cli";
    spec.seed = {false, 1};
    spec.mixes = {3, false, 4, 4, true};
    spec.designs = {LlcDesign::Static};
    spec.groups = {{"xapian", {"xapian"}}};
    spec.calibration = driver::CalibrationMode::PerJob;
    spec.output.columns = {{"tailMean", "tail(mean)"},
                           {"tailWorst", "tail(worst)"},
                           {"batchWS", "batchWS"},
                           {"attackers", "attackers"}};
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    driver::ExperimentSpec adhoc = adhocSpec();
    bool designGiven = false;
    // The first ad-hoc grid flag seen: next to --scenario it would be
    // silently ignored, so it is refused instead.
    std::string gridFlag;
    std::uint32_t jobs = driver::jobCountFromEnv(1);
    std::string cacheDir = driver::cacheDirFromEnv();
    bool selfcheck = false;
    std::string statsJsonPath, timelineCsvPath, traceOutPath;
    std::string scenarioPath, scenarioCheckPath;
    std::string profilePath;
    driver::TelemetryOptions telemetry =
        driver::telemetryOptionsFromEnv();

    const std::uint64_t u32Max = 0xffffffffull;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return parseCount(arg, next(), lo, hi);
        };
        if (gridFlag.empty() && isGridFlag(arg)) gridFlag = arg;
        try {
            if (arg == "--scenario") {
                scenarioPath = next();
            } else if (arg == "--scenario-check") {
                scenarioCheckPath = next();
            } else if (arg == "--design") {
                LlcDesign design = parseDesign(next());
                designGiven = true;
                if (design != LlcDesign::Static)
                    adhoc.designs.push_back(design);
            } else if (arg == "--lc") {
                std::string name = next();
                if (name == "Mixed") {
                    adhoc.groups = {{name, allTailAppNames()}};
                } else {
                    lcAppParams(name); // validates (tail or KV)
                    adhoc.groups = {{name, {name}}};
                }
            } else if (arg == "--list-apps") {
                return listApps();
            } else if (arg == "--load") {
                std::string level = next();
                if (level == "low") adhoc.loads = {LoadLevel::Low};
                else if (level == "high") adhoc.loads = {LoadLevel::High};
                else usage(argv[0]);
            } else if (arg == "--vms") {
                adhoc.mixes.vms =
                    static_cast<std::uint32_t>(count(1, u32Max));
            } else if (arg == "--batch") {
                adhoc.mixes.batchPerVm =
                    static_cast<std::uint32_t>(count(0, 64));
            } else if (arg == "--mixes") {
                adhoc.mixes.count =
                    static_cast<std::uint32_t>(count(1, u32Max));
            } else if (arg == "--seed") {
                adhoc.seed.fallback = count(1, ~0ull);
            } else if (arg == "--paper-scale") {
                adhoc.preset = "paperDefault";
            } else if (arg == "--jobs") {
                jobs = static_cast<std::uint32_t>(count(1, 1024));
            } else if (arg == "--cache-dir") {
                cacheDir = next();
            } else if (arg == "--sweep") {
                adhoc.calibration = driver::CalibrationMode::Shared;
            } else if (arg == "--selfcheck") {
                selfcheck = true;
            } else if (arg == "--stats-json") {
                statsJsonPath = next();
            } else if (arg == "--timeline-csv") {
                timelineCsvPath = next();
            } else if (arg == "--trace-out") {
                traceOutPath = next();
            } else if (arg == "--profile") {
                profilePath = next();
            } else if (arg == "--events-out") {
                telemetry.eventsPath = next();
            } else if (arg == "--heartbeat-ms") {
                telemetry.heartbeatMs =
                    static_cast<std::uint32_t>(count(0, u32Max));
            } else if (arg == "--help" || arg == "-h") {
                usage(argv[0], 0);
            } else {
                std::fprintf(stderr, "unknown option %s\n", arg.c_str());
                usage(argv[0]);
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    const bool fromFile = !scenarioPath.empty();
    if ((fromFile || !scenarioCheckPath.empty()) && !gridFlag.empty()) {
        std::fprintf(stderr,
                     "error: %s does not apply with --scenario or "
                     "--scenario-check (the scenario file defines the "
                     "grid)\n",
                     gridFlag.c_str());
        return 2;
    }
    // Arm the profiler before any simulation runs. Without
    // --profile every JUMANJI_PROF_SCOPE stays a single disarmed
    // branch (<2% on the fig13-small bench, like tracing).
    if (!profilePath.empty()) prof::setProfilingEnabled(true);

    // A malformed scenario document exits 2 with its "field: reason"
    // diagnostic, like any other bad usage.
    if (!scenarioCheckPath.empty()) {
        try {
            driver::ExperimentSpec spec =
                loadScenario(scenarioCheckPath);
            driver::SpecPlan plan = driver::expandSpec(spec);
            std::printf("scenario %s: %zu jobs (%zu variants x %zu "
                        "loads x %zu groups x %u mixes), %zu designs, "
                        "OK\n",
                        spec.name.c_str(), plan.graph.size(),
                        spec.variants.size(), spec.loads.size(),
                        spec.groups.size(), plan.mixCount,
                        spec.designs.size());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", scenarioCheckPath.c_str(),
                         e.what());
            return 2;
        }
        return 0;
    }

    // One grid, from the file or from the flags; everything below
    // runs the same way for both.
    driver::ExperimentSpec spec = adhoc;
    if (fromFile) {
        try {
            spec = loadScenario(scenarioPath);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: %s\n", scenarioPath.c_str(),
                         e.what());
            return 2;
        }
    } else {
        if (!designGiven) {
            for (LlcDesign d : {LlcDesign::Adaptive, LlcDesign::VMPart,
                                LlcDesign::Jigsaw, LlcDesign::Jumanji})
                spec.designs.push_back(d);
        }
        if (spec.preset == "paperDefault") {
            std::fprintf(stderr,
                         "note: --paper-scale simulates Table II time "
                         "constants (hours of CPU time per run).\n");
        }
    }

    try {
        // Each traced job gets a private tracer that the orchestrator
        // merges back in submission order, so the combined trace is
        // the same whatever the worker count (plus a schedule lane).
        std::unique_ptr<Tracer> tracer;
        if (!traceOutPath.empty()) tracer = std::make_unique<Tracer>();
        auto writeTrace = [&]() {
            if (tracer == nullptr) return;
            std::ofstream os(traceOutPath);
            if (!os) fatal("cannot open " + traceOutPath);
            tracer->writeTo(os);
        };

        driver::Orchestrator::Options orchOpts;
        orchOpts.jobs = jobs;
        // A warm cache would make the selfcheck's second run a replay
        // of the first — exactly what it must not be.
        orchOpts.cacheDir = selfcheck ? std::string() : cacheDir;
        orchOpts.tracer = tracer.get();
        orchOpts.telemetry = telemetry;
        driver::Orchestrator orchestrator(orchOpts);

        driver::SpecRun run = driver::runSpec(spec, orchestrator);

        if (selfcheck) {
            // Two independent runs of the identical experiment; the
            // stats stream must hash identically or the simulator
            // depends on something outside (seed, config).
            std::uint64_t first = fingerprintResults(run.results);
            std::uint64_t second = fingerprintResults(
                driver::runSpec(spec, orchestrator).results);
            std::printf("selfcheck: run1=%016llx run2=%016llx -> %s\n",
                        static_cast<unsigned long long>(first),
                        static_cast<unsigned long long>(second),
                        first == second ? "OK" : "MISMATCH");
            writeTrace(); // both repetitions, for what it's worth
            writeProfileJson(profilePath);
            return first == second ? 0 : 1;
        }

        // A scenario prints its full report; the ad-hoc grid prints
        // only the table (one row per design).
        std::string report = fromFile
                                 ? driver::renderSpec(spec, run)
                                 : driver::renderSpecTable(spec, run);
        std::fputs(report.c_str(), stdout);

        if (!statsJsonPath.empty()) {
            std::ofstream os(statsJsonPath);
            if (!os) fatal("cannot open " + statsJsonPath);
            writeStatsJson(os, run.results);
        }
        if (!timelineCsvPath.empty()) {
            std::ofstream os(timelineCsvPath);
            if (!os) fatal("cannot open " + timelineCsvPath);
            writeTimelineCsv(os, run.results);
        }
        writeTrace();
        writeProfileJson(profilePath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
