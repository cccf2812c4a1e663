#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload fig13_serial --seed 1 \\
        --seconds 20 --trace 0

Run from anywhere inside a checkout. It builds perfbench/bench_driver
from the checkout's own sources into .bench_build/ (the first run
compiles the simulator; later runs only re-check it), runs the named
workload with the result cache off, checks every pass's output,
prints each metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced passes.
--trace 1 runs one untraced pass, one traced pass and the layer
probes, prints the layer ledger, and reports the per-layer metrics.
Exit status 2 means nothing could be measured (no sources, failed
build, unknown workload); 1 means the measurement program itself
died. Neither prints a result line. perfbench/README.md has the
details.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import bench  # noqa: E402

# A run, build check included, must end within 180 s.
RUN_LIMIT_S = 175
SETUP_SAMPLES = 7


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds bench_driver; its path, or None."""
    for need in ("src/CMakeLists.txt", "examples/scenarios"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("not a repository checkout: %s is missing" % need)
            return None
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "bench_driver",
                  "-j", str(bench.parallel_jobs())])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=out,
                                    cwd=ROOT).returncode
            except OSError as e:
                log("cannot run %s: %s" % (cmd[0], e))
                return None
            if rc != 0:
                log("build failed; see .bench_build/build.log")
                return None
    return os.path.join(cmake_dir, "bench_driver")


def run_driver(exe, mode, wl, seed, seconds, workdir, timeout):
    """Runs bench_driver; its JSON document, or None if it died."""
    out = os.path.join(workdir, mode + ".json")
    cmd = [exe, mode,
           "--scenario", os.path.join(ROOT, wl["scenario"]),
           "--mixes", str(wl["mixes"]), "--seed", str(seed),
           "--jobs", str(wl["jobs"]), "--work-dir", workdir, "--out", out]
    if mode == "run":
        cmd += ["--min-seconds", str(seconds),
                "--min-setups", str(SETUP_SAMPLES)]
    else:
        cmd += ["--probe-jobs", ",".join(str(j) for j in wl["probe_jobs"])]
    # The benchmark sets seed, mixes and jobs itself; no JUMANJI_*
    # knob from the caller's environment may change the workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMANJI_")}
    with open(os.path.join(workdir, "driver.err"), "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("bench_driver %s exceeded %.0f s" % (mode, timeout))
            return None
    if rc != 0:
        with open(os.path.join(workdir, "driver.err")) as f:
            log("bench_driver %s exited %d: %s" % (mode, rc, f.read()[-2000:]))
        return None
    with open(out) as f:
        return json.load(f)


def report_end_to_end(name, wl, seed, doc, attempted, failed):
    events = [bench.read_events(p["events"]) for p in doc["passes"]]
    metrics, job_samples = bench.end_to_end(doc, events)
    notes = {
        "wall_s": "median of %d pass(es), spec load to rendered table"
                  % len(doc["passes"]),
        "sim_accesses_per_s": "median of sum(llc.hits+llc.misses)/wall_s",
        "setup_s": "median of %d set-ups: parse + expandSpec + calibrations"
                   % len(doc["setups"]),
        "job_p50_s": "median host seconds per job, %d samples" % job_samples,
        "peak_rss_mb": "peak resident memory of the measuring process",
    }
    print("workload %s: %s, %d mix(es), jobs=%d, seed %d"
          % (name, wl["scenario"], wl["mixes"], wl["jobs"], seed))
    units = dict(bench.END_TO_END)
    for key, unit in bench.END_TO_END:
        print("  %-20s %16.6g %-6s %s" % (key, metrics[key], unit, notes[key]))
    print("  %-20s %16.6g %-6s %d of %d jobs failed or failed a check"
          % ("fail_ratio", failed / attempted if attempted else 1.0, "ratio",
             failed, attempted))
    return metrics, units


def report_layers(name, seed, doc):
    untraced, traced = doc["passes"]
    if not doc["probes"]:
        log("traced pass produced no probes; no ledger")
        return None, None
    rows, metrics = bench.ledger(doc["counts"], doc["probes"], doc["profile"])
    metrics.update(bench.driver_layer(untraced,
                                      bench.read_events(untraced["events"])))
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"]
                                       if untraced["wall_s"] > 0 else 0.0)
    print(bench.render_ledger(name, seed, rows, metrics))
    units = dict(bench.PER_LAYER)
    for key, unit in bench.PER_LAYER:
        print("  %-32s %16.6g %s" % (key, metrics[key], unit))
    return {key: metrics[key] for key, _ in bench.PER_LAYER}, units


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in bench.WORKLOADS:
        log("unknown workload %r (have: %s)"
            % (args.workload, ", ".join(bench.WORKLOADS)))
        return 2
    if args.seed < 1:
        log("--seed must be >= 1")
        return 2

    start = time.monotonic()
    exe = build()
    if exe is None:
        return 2
    wl = bench.WORKLOADS[args.workload]
    workdir = os.path.join(BUILD, "runs", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    timeout = RUN_LIMIT_S - min(time.monotonic() - start, 30.0)
    mode = "trace" if args.trace else "run"
    try:
        doc = run_driver(exe, mode, wl, args.seed, args.seconds, workdir,
                         timeout)
        if doc is None:
            return 1
        store = bench.FingerprintStore(os.path.join(BUILD, "fingerprints"),
                                       bench.pins_digest())
        reference = store.load(wl["grid"], args.seed)
        attempted, failed, problems, ref = bench.check_passes(
            doc["passes"], wl["grid"], args.seed, ROOT, reference)
        if reference is None and ref is not None and failed == 0:
            store.save(wl["grid"], args.seed, ref)
        if args.trace:
            metrics, units = report_layers(args.workload, args.seed, doc)
            if metrics is None:
                return 1
            print("  %-32s %16.6g %s" % ("fail_ratio", failed / attempted,
                                         "ratio"))
        else:
            metrics, units = report_end_to_end(args.workload, wl, args.seed,
                                               doc, attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("check failed: " + problem)
    print(bench.result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
