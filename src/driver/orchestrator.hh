/**
 * @file
 * Orchestrator: runs a JobGraph of independent sweep points across a
 * worker pool, merging outcomes back in job-submission order.
 *
 * The determinism contract, in one sentence: parallelism may change
 * *when* a result is computed, never *what* it is or *where* it lands
 * in the output. Three rules enforce it:
 *   1. every job is a self-contained value (config + mix + designs +
 *      calibrations) executed by single-threaded simulation code;
 *   2. outcomes, merged traces, and cache stores are indexed by JobId
 *      (= submission order), never by completion order or worker id;
 *   3. anything scheduling-dependent (which worker ran what, queue
 *      depths) lives in the orchestrator's own driver.* stat group,
 *      which is never folded into result fingerprints.
 * Hence `--jobs 4` and `--jobs 1` produce byte-identical tables and
 * --selfcheck digests.
 *
 * The on-disk ResultCache slots in transparently: a job whose key
 * hits is answered by a file read on the submitting thread and never
 * touches the pool. Tracing disables the cache (a cached result
 * carries no trace events), keeping traced runs complete.
 */

#ifndef JUMANJI_DRIVER_ORCHESTRATOR_HH
#define JUMANJI_DRIVER_ORCHESTRATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/job.hh"
#include "src/driver/result_cache.hh"
#include "src/driver/telemetry.hh"
#include "src/sim/statreg.hh"
#include "src/sim/tracing.hh"

namespace jumanji {
namespace driver {

/** One LC-app calibration to compute (or fetch from the cache). */
struct CalibrationJob
{
    std::string lcName;
    /** The config to calibrate with (ExperimentHarness base config). */
    SystemConfig config;
};

class Orchestrator
{
  public:
    struct Options
    {
        /** Worker threads. 1 reproduces serial execution exactly. */
        std::uint32_t jobs = 1;
        /** Result-cache directory; empty disables caching. */
        std::string cacheDir;
        /**
         * Merged trace sink. Non-null gives every job a private
         * tracer (merged back in submission order) plus a "driver
         * workers" lane block showing the actual schedule — and
         * disables the result cache for the run.
         */
        Tracer *tracer = nullptr;
        /**
         * Event log + heartbeat knobs (src/driver/telemetry.hh).
         * Both off by default; neither affects results.
         */
        TelemetryOptions telemetry;
    };

    explicit Orchestrator(Options options);

    const Options &options() const { return options_; }

    /**
     * Executes every job of @p graph and returns outcomes indexed by
     * JobId. Does not throw on job failure: a job whose simulation
     * escapes with FatalError/PanicError yields ok == false with the
     * message, and every other job still runs to completion.
     */
    std::vector<JobOutcome> run(const JobGraph &graph);

    /**
     * Computes (or loads from cache) one calibration per request,
     * in parallel, returned in request order. Throws FatalError if
     * any calibration fails — a sweep cannot proceed without them.
     */
    std::vector<LcCalibration>
    runCalibrations(const std::vector<CalibrationJob> &requests);

    /**
     * The driver.* stat group: jobs.{submitted,simulated,cached,
     * failed}, calibrations.{computed,cached}, queue.peakDepth,
     * workers, and one workerNN.jobs counter per worker. Values
     * accumulate across run() calls. Scheduling-dependent by design;
     * never folded into result fingerprints.
     */
    const StatRegistry &stats() const { return statreg_; }

  private:
    Options options_;
    ResultCache cache_;
    Telemetry telemetry_;
    StatRegistry statreg_;

    std::uint64_t jobsSubmitted_ = 0;
    std::uint64_t jobsSimulated_ = 0;
    std::uint64_t jobsCached_ = 0;
    std::uint64_t jobsFailed_ = 0;
    std::uint64_t calibrationsComputed_ = 0;
    std::uint64_t calibrationsCached_ = 0;
    std::uint64_t peakQueueDepth_ = 0;
    /** Jobs run per worker; slot w written only by worker w. */
    std::vector<std::uint64_t> workerJobs_;
};

/**
 * Worker count for tools/benches: JUMANJI_JOBS when it is a whole
 * number in [1, 1024] (the --jobs range), else @p fallback; a
 * set-but-invalid value warns once (jumanji::envCount).
 */
std::uint32_t jobCountFromEnv(std::uint32_t fallback);

/** Cache directory for tools/benches: JUMANJI_CACHE_DIR or empty. */
std::string cacheDirFromEnv();

} // namespace driver
} // namespace jumanji

#endif // JUMANJI_DRIVER_ORCHESTRATOR_HH
