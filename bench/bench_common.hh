/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every binary prints the rows/series of one table or figure from
 * the paper. Scale knobs:
 *   JUMANJI_MIXES=<n>      random batch mixes per configuration
 *   JUMANJI_SEED=<n>       base seed, 1..2^64-1
 *   JUMANJI_JOBS=<n>       driver worker threads, 1..1024 (default 1;
 *                          output is byte-identical for any value)
 *   JUMANJI_CACHE_DIR=<d>  on-disk result cache (default: off)
 *   JUMANJI_EVENTS=<f>     append one JSONL telemetry event per
 *                          calibration/job/run (default: off)
 *   JUMANJI_HEARTBEAT_MS=<n>  stderr progress heartbeat period for
 *                          long sweeps (default: 0 = off)
 *   JUMANJI_KV_LOAD_SCALE=<x>  scales the offered load of every KV
 *                          app in a scenario, range (0, 1e3]
 *                          (default: 1.0; see driver::kvLoadScaleFromEnv)
 * An integer knob that is not a whole number in its range warns
 * once and falls back to its default (jumanji::envCount).
 */

#ifndef JUMANJI_BENCH_BENCH_COMMON_HH
#define JUMANJI_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "src/driver/orchestrator.hh"
#include "src/driver/spec.hh"

namespace jumanji {
namespace bench {

/**
 * JUMANJI_SEED override, else @p fallback. Accepted range is
 * [1, 2^64-1]; 0 or garbage warns once and falls back (see
 * driver::seedFromEnv, which this delegates to — also the reason no
 * bench needs getenv for seeds, which the env-routing lint rule
 * enforces).
 */
inline std::uint64_t
seedFromEnv(std::uint64_t fallback = 1)
{
    return driver::seedFromEnv(fallback);
}

/** The Static normalization baseline every comparison is run against. */
inline LlcDesign
baselineDesign()
{
    return LlcDesign::Static;
}

/**
 * The four non-baseline designs of the main comparison (Sec. VII).
 * baselineDesign() is not listed: the harness always runs Static
 * first as the normalization baseline, so jobs carry only the
 * designs compared against it.
 */
inline std::vector<LlcDesign>
mainDesigns()
{
    return {LlcDesign::Adaptive, LlcDesign::VMPart, LlcDesign::Jigsaw,
            LlcDesign::Jumanji};
}

/** Standard bench-scale config with env seed. */
inline SystemConfig
benchConfig()
{
    SystemConfig cfg = SystemConfig::benchScaled();
    cfg.seed = seedFromEnv();
    return cfg;
}

inline void
header(const std::string &figure, const std::string &caption)
{
    std::printf("==========================================================\n");
    std::printf("%s — %s\n", figure.c_str(), caption.c_str());
    std::printf("==========================================================\n");
}

inline void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

/**
 * The process-wide experiment driver, configured from the env knobs
 * above. Every bench funnels its simulations through this one
 * orchestrator so JUMANJI_JOBS/JUMANJI_CACHE_DIR apply uniformly and
 * the driver.* stats cover the whole binary.
 */
inline driver::Orchestrator &
orchestrator()
{
    static driver::Orchestrator orch([] {
        driver::Orchestrator::Options opts;
        opts.jobs = driver::jobCountFromEnv(1);
        opts.cacheDir = driver::cacheDirFromEnv();
        opts.telemetry = driver::telemetryOptionsFromEnv();
        return opts;
    }());
    return orch;
}

/**
 * Runs a spec through the process-wide orchestrator and returns the
 * plan + results (for benches that post-process them: table1, fig05,
 * fig14, fig15, and the ablation's trading probe).
 */
inline driver::SpecRun
runSpec(const driver::ExperimentSpec &spec)
{
    return driver::runSpec(spec, orchestrator());
}

/**
 * The whole body of a spec-driven bench binary: banner, run, table,
 * note — byte-identical to the former handwritten loops (the banner
 * still prints before the first simulation starts, so a crashed run
 * is attributable).
 */
inline void
runSpecMain(const driver::ExperimentSpec &spec)
{
    header(spec.output.title, spec.output.caption);
    driver::SpecRun run = runSpec(spec);
    std::fputs(driver::renderSpecTable(spec, run).c_str(), stdout);
    if (!spec.output.note.empty()) note(spec.output.note);
}

} // namespace bench
} // namespace jumanji

#endif // JUMANJI_BENCH_BENCH_COMMON_HH
