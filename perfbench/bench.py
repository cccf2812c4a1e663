"""Workloads, correctness checks, metrics and the layer ledger.

Pure functions over the JSON documents that bench_driver writes, so
perfbench/test_bench.py can exercise every rule on fixed fixtures
without building or running the simulator. perfbench/README.md
explains what each metric means and why each workload exists.
"""

import hashlib
import json
import os
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def parallel_jobs():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 4))


# Each workload is a fixed job graph run as a closed batch; the
# worker count is the concurrency. "grid" names the simulated grid:
# workloads that share a grid must produce identical results.
WORKLOADS = {
    "fig13_serial": {
        "scenario": "examples/scenarios/fig13_small.json",
        "mixes": 1,
        "jobs": 1,
        "grid": "fig13_small-m1",
        "probe_jobs": [5, 11],
    },
    "fig13_parallel": {
        "scenario": "examples/scenarios/fig13_small.json",
        "mixes": 1,
        "jobs": parallel_jobs(),
        "grid": "fig13_small-m1",
        "probe_jobs": [5, 11],
    },
    "kv_flash": {
        "scenario": "examples/scenarios/kv_flash_crowd.json",
        "mixes": 1,
        "jobs": 1,
        "grid": "kv_flash_crowd-m1",
        "probe_jobs": [0],
    },
}

# Seed-1 anchors measured on the simulator this benchmark was written
# against. A program change that alters what is simulated must re-pin
# these on purpose (and say so), like the repository's other anchors.
PINS = {
    "fig13_small-m1": {
        "seed": 1,
        "accesses": 82072041,
        "fingerprint": "f54de82a48899d5a",
        "golden": "tests/golden/fig13_small.txt",
    },
    "kv_flash_crowd-m1": {
        "seed": 1,
        "accesses": 6299686,
        "fingerprint": "2d5026513dfe7c41",
        "golden": "tests/golden/kv_small.txt",
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("sim_accesses_per_s", "acc/s"),
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.self_s", "s"),
    ("workloads.steps", "count"),
    ("workloads.ns_per_step", "ns"),
    ("workloads.self_s", "s"),
    ("cpu.llc_accesses", "count"),
    ("cpu.ns_per_plan", "ns"),
    ("cpu.ns_per_access", "ns"),
    ("cpu.self_s", "s"),
    ("cache.accesses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.ns_per_access", "ns"),
    ("cache.invalidations", "count"),
    ("cache.ns_per_invalidate", "ns"),
    ("cache.self_s", "s"),
    ("dnuca.umon_accesses", "count"),
    ("dnuca.umon_sample_ratio", "ratio"),
    ("dnuca.ns_per_umon_access", "ns"),
    ("dnuca.vtb_installs", "count"),
    ("dnuca.self_s", "s"),
    ("noc.hops", "count"),
    ("noc.routes", "count"),
    ("noc.ns_per_route", "ns"),
    ("noc.self_s", "s"),
    ("mem.accesses", "count"),
    ("mem.ns_per_access", "ns"),
    ("mem.self_s", "s"),
    ("core.reconfigurations", "count"),
    ("core.reconfigure_s", "s"),
    ("core.us_per_policy_reconfigure", "us"),
    ("core.us_per_install", "us"),
    ("system.construct_ms", "ms"),
    ("system.calibrate_s", "s"),
    ("driver.expand_s", "s"),
    ("driver.queue_wait_p50_s", "s"),
    ("driver.worker_busy_ratio", "ratio"),
    ("driver.tail_idle_s", "s"),
    ("ledger.predicted_s", "s"),
    ("ledger.measured_s", "s"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

# Counts the stats dump has no counter for; the ledger derives them
# from dumped counts and probe ratios, and says so.
DERIVED = {
    "sim.events": "steps + LLC accesses + 2 wakes per epoch",
    "workloads.steps": "LLC accesses x probed steps per access",
    "dnuca.umon_accesses": "LLC accesses x probed share of accesses whose "
                           "VC has a UMON (dnuca.umonNN.* are per-epoch "
                           "gauges, not counts)",
    "noc.routes": "2 per LLC access + 1 per LLC miss",
}


def median(values):
    return statistics.median(values) if values else 0.0


def read_events(path):
    """The orchestrator's JSONL telemetry; missing file = no events."""
    if not path or not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ------------------------------------------------------------ checks

def table_digest(table):
    return hashlib.sha256(table.encode()).hexdigest()[:16]


def pass_reference(p):
    return {"jobs": p["job_fingerprints"], "table": table_digest(p["table"])}


def check_passes(passes, grid, seed, root, reference=None, pins=PINS):
    """Counts failed jobs over @p passes; never raises on bad output.

    A job fails when it errored or its fingerprint differs from the
    reference (@p reference, else the run's own first clean pass). A
    pass-level mismatch — seed-1 pins, golden table, table bytes —
    fails every job of that pass. Returns (attempted, failed,
    problems, reference).
    """
    problems = []
    width = max([len(p["job_errors"]) for p in passes] + [1])
    pin = pins.get(grid)
    if pin is not None and pin["seed"] != seed:
        pin = None
    golden = None
    if pin is not None and pin.get("golden"):
        gpath = os.path.join(root, pin["golden"])
        golden = ""
        if os.path.exists(gpath):
            with open(gpath) as f:
                golden = f.read()
    if reference is None:
        clean = [p for p in passes if not p["pass_error"] and p["fingerprint"]]
        reference = pass_reference(clean[0]) if clean else None

    attempted = failed = 0
    for i, p in enumerate(passes):
        n = len(p["job_errors"]) or width
        attempted += n
        bad = set()
        if p["pass_error"]:
            problems.append("pass %d: %s" % (i, p["pass_error"]))
            failed += n
            continue
        for j, err in enumerate(p["job_errors"]):
            if err:
                problems.append("pass %d job %d: %s" % (i, j, err))
                bad.add(j)
        whole = False
        if reference is not None:
            ref_jobs = reference["jobs"]
            if len(ref_jobs) != len(p["job_fingerprints"]):
                problems.append("pass %d: job count differs from reference" % i)
                whole = True
            else:
                for j, (a, b) in enumerate(zip(p["job_fingerprints"], ref_jobs)):
                    if a != b:
                        problems.append("pass %d job %d: fingerprint %s != %s"
                                        % (i, j, a, b))
                        bad.add(j)
            if reference["table"] != table_digest(p["table"]):
                problems.append("pass %d: table differs from reference" % i)
                whole = True
        if pin is not None:
            if int(p["accesses"]) != pin["accesses"]:
                problems.append("pass %d: %d simulated accesses, pinned %d"
                                % (i, p["accesses"], pin["accesses"]))
                whole = True
            if p["fingerprint"] != pin["fingerprint"]:
                problems.append("pass %d: fingerprint %s, pinned %s"
                                % (i, p["fingerprint"], pin["fingerprint"]))
                whole = True
            if golden is not None and p["table"] != golden:
                problems.append("pass %d: table differs from %s"
                                % (i, pin["golden"]))
                whole = True
        failed += n if whole else len(bad)
    return attempted, failed, problems, reference


def pins_digest(pins=PINS):
    """Names the simulator generation the pins describe."""
    return hashlib.sha256(json.dumps(pins, sort_keys=True).encode()
                          ).hexdigest()[:12]


class FingerprintStore:
    """Per-(grid, seed) results shared by the workloads of one grid.

    The first workload to finish a grid at a seed records its job
    fingerprints under the build directory; every later run of that
    grid at that seed, at any worker count, must match them. Entries
    are keyed by @p generation (pins_digest()), so re-pinning PINS
    after a deliberate change to what is simulated starts afresh.
    """

    def __init__(self, directory, generation):
        self.directory = directory
        self.generation = generation

    def _path(self, grid, seed):
        return os.path.join(self.directory, "%s-seed%d-%s.json"
                            % (grid, seed, self.generation))

    def load(self, grid, seed):
        try:
            with open(self._path(grid, seed)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def save(self, grid, seed, reference):
        os.makedirs(self.directory, exist_ok=True)
        tmp = self._path(grid, seed) + ".tmp%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(reference, f)
        os.replace(tmp, self._path(grid, seed))


# ------------------------------------------------------------ metrics

def end_to_end(doc, events_by_pass):
    passes = doc["passes"]
    jobs = [e["simulate_s"] for events in events_by_pass
            for e in events if e.get("type") == "job" and e.get("ok")]
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "sim_accesses_per_s": median([p["accesses"] / p["wall_s"]
                                      for p in passes]),
        "setup_s": median(doc["setups"]),
        "job_p50_s": median(jobs),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }, len(jobs)


def driver_layer(pass_doc, events):
    jobs = [e for e in events if e.get("type") == "job"]
    runs = [e for e in events if e.get("type") == "run" and e.get("kind") == "jobs"]
    cal = [e for e in events if e.get("type") == "run"
           and e.get("kind") == "calibrations"]
    workers = max([r["workers"] for r in runs] + [1])
    phase = sum(r["wall_s"] for r in runs)
    busy = [0.0] * workers
    for e in jobs:
        if 0 <= e["worker"] < workers:
            busy[e["worker"]] += e["simulate_s"]
    return {
        "driver.expand_s": pass_doc["expand_s"],
        "driver.queue_wait_p50_s": median([e["queue_wait_s"] for e in jobs]),
        "driver.worker_busy_ratio": (sum(busy) / (workers * phase)
                                     if phase > 0 else 0.0),
        # The idlest worker's idle time within the job phase: the tail
        # it waits out for the slowest worker, plus the driver's own
        # per-job overhead (all of it on a single worker).
        "driver.tail_idle_s": phase - min(busy),
        "system.calibrate_s": sum(r["wall_s"] for r in cal),
    }


def _probe_means(probes):
    """Probe fields averaged per design (over the probed jobs)."""
    by_design = {}
    for p in probes:
        by_design.setdefault(p["design"], []).append(p)
    out = {}
    for design, ps in by_design.items():
        out[design] = {k: statistics.fmean(p[k] for p in ps)
                       for k, v in ps[0].items()
                       if isinstance(v, (int, float)) and k != "job"}
    return out


def ledger(counts, probes, profile):
    """Prices each layer: deterministic count x probed ns per op.

    Counts are per design (the stats dump of every run of that
    design, summed); each design is priced with its own probes.
    Returns (rows, metrics): rows are (layer, count name, count,
    ns/op, predicted s, measured s or None).
    """
    per = _probe_means(probes)
    tot = {}

    def add(name, value):
        tot[name] = tot.get(name, 0.0) + value

    for design, c in counts.items():
        p = per[design]
        acc = c.get("llc.hits", 0.0) + c.get("llc.misses", 0.0)
        steps = acc * p["steps_per_access"]
        reconf = c.get("runtime.reconfigurations", 0.0)
        events = steps + acc + 2.0 * reconf
        routes = 2.0 * acc + c.get("llc.misses", 0.0)
        # MemPath::accessArrived calls Umon::access on every LLC access
        # of a VC with a monitor. The dump's dnuca.umonNN.* read as
        # "activity this epoch" (decayed every epoch), so they are no
        # run totals; their ratio is still the recent sampling rate.
        umon = acc * p["umon_access_share"]
        mem = c.get("mem.accesses", 0.0)
        add("acc", acc)
        add("hits", c.get("llc.hits", 0.0))
        add("steps", steps)
        add("events", events)
        add("routes", routes)
        add("umon", umon)
        add("umon_gauge", c.get("dnuca.umonNN.accesses", 0.0))
        add("sampled_gauge", c.get("dnuca.umonNN.sampledAccesses", 0.0))
        add("mem", mem)
        add("hops", c.get("noc.hops", 0.0))
        add("reconf", reconf)
        add("installs", c.get("dnuca.vtb.installs", 0.0))
        add("inval", c.get("dnuca.vtb.invalidations", 0.0))
        add("sim_ns", events * p["ns_per_event"])
        add("step_ns", steps * p["ns_per_step"])
        add("plan_ns", acc * p["ns_per_plan"])
        add("arrive_ns", acc * p["ns_per_arrive"])
        add("cache_ns", acc * p["ns_per_cache_access"])
        add("inval_ns", c.get("dnuca.vtb.invalidations", 0.0)
            * p["ns_per_invalidate"])
        add("umon_ns", umon * p["ns_per_umon_access"])
        add("route_ns", routes * p["ns_per_route"])
        add("mem_ns", mem * p["ns_per_mem_access"])

    def per_op(ns, count):
        return tot.get(ns, 0.0) / tot[count] if tot.get(count) else 0.0

    scopes = {s["name"]: s for s in profile}
    measured = scopes.get("sim.run", {}).get("inclusive_s", 0.0)
    core_s = scopes.get("sim.epoch.repartition", {}).get("inclusive_s", 0.0)
    sim_s = tot.get("sim_ns", 0.0) * 1e-9
    work_s = tot.get("step_ns", 0.0) * 1e-9
    cache_s = tot.get("cache_ns", 0.0) * 1e-9
    dnuca_s = tot.get("umon_ns", 0.0) * 1e-9
    noc_s = tot.get("route_ns", 0.0) * 1e-9
    mem_s = tot.get("mem_ns", 0.0) * 1e-9
    cpu_incl = (tot.get("plan_ns", 0.0) + tot.get("arrive_ns", 0.0)) * 1e-9
    cpu_s = max(0.0, cpu_incl - cache_s - dnuca_s - noc_s - mem_s)
    predicted = sim_s + work_s + cpu_s + cache_s + dnuca_s + noc_s + mem_s + core_s

    acc = tot.get("acc", 0.0)
    rows = [
        ("sim", "sim.events", tot.get("events", 0.0),
         per_op("sim_ns", "events"), sim_s, None),
        ("workloads", "workloads.steps", tot.get("steps", 0.0),
         per_op("step_ns", "steps"), work_s, None),
        ("cpu", "cpu.llc_accesses", acc,
         cpu_s * 1e9 / acc if acc else 0.0, cpu_s, None),
        ("cache", "cache.accesses", acc, per_op("cache_ns", "acc"), cache_s, None),
        ("dnuca", "dnuca.umon_accesses", tot.get("umon", 0.0),
         per_op("umon_ns", "umon"), dnuca_s, None),
        ("noc", "noc.routes", tot.get("routes", 0.0),
         per_op("route_ns", "routes"), noc_s, None),
        ("mem", "mem.accesses", tot.get("mem", 0.0),
         per_op("mem_ns", "mem"), mem_s, None),
        ("core", "core.reconfigurations", tot.get("reconf", 0.0),
         core_s * 1e9 / tot["reconf"] if tot.get("reconf") else 0.0,
         core_s, core_s),
    ]
    metrics = {
        "sim.events": tot.get("events", 0.0),
        "sim.ns_per_event": per_op("sim_ns", "events"),
        "sim.self_s": sim_s,
        "workloads.steps": tot.get("steps", 0.0),
        "workloads.ns_per_step": per_op("step_ns", "steps"),
        "workloads.self_s": work_s,
        "cpu.llc_accesses": acc,
        "cpu.ns_per_plan": per_op("plan_ns", "acc"),
        "cpu.ns_per_access": per_op("arrive_ns", "acc"),
        "cpu.self_s": cpu_s,
        "cache.accesses": acc,
        "cache.hit_ratio": tot.get("hits", 0.0) / acc if acc else 0.0,
        "cache.ns_per_access": per_op("cache_ns", "acc"),
        "cache.invalidations": tot.get("inval", 0.0),
        "cache.ns_per_invalidate": per_op("inval_ns", "inval"),
        "cache.self_s": cache_s,
        "dnuca.umon_accesses": tot.get("umon", 0.0),
        "dnuca.umon_sample_ratio": (tot.get("sampled_gauge", 0.0)
                                    / tot["umon_gauge"]
                                    if tot.get("umon_gauge") else 0.0),
        "dnuca.ns_per_umon_access": per_op("umon_ns", "umon"),
        "dnuca.vtb_installs": tot.get("installs", 0.0),
        "dnuca.self_s": dnuca_s,
        "noc.hops": tot.get("hops", 0.0),
        "noc.routes": tot.get("routes", 0.0),
        "noc.ns_per_route": per_op("route_ns", "routes"),
        "noc.self_s": noc_s,
        "mem.accesses": tot.get("mem", 0.0),
        "mem.ns_per_access": per_op("mem_ns", "mem"),
        "mem.self_s": mem_s,
        "core.reconfigurations": tot.get("reconf", 0.0),
        "core.reconfigure_s": core_s,
        "core.us_per_policy_reconfigure": median(
            [p["us_per_policy_reconfigure"] for p in probes]),
        "core.us_per_install": median([p["us_per_install"] for p in probes]),
        "system.construct_ms": median([p["construct_ms"] for p in probes]),
        "ledger.predicted_s": predicted,
        "ledger.measured_s": measured,
        "ledger.coverage": predicted / measured if measured > 0 else 0.0,
    }
    return rows, metrics


def remainder_note(rows, predicted, measured):
    """Names the largest part of sim.run the ledger does not explain."""
    gap = measured - predicted
    share = gap / measured if measured > 0 else 0.0
    if gap >= 0:
        return ("largest unexplained remainder: %.3f s (%.1f%% of sim.run) "
                "outside every probed call: CoreModel::resume/completeAccess "
                "bookkeeping, the sampler and KV load agents, and run "
                "set-up/collect inside sim.run; an in-program counter or "
                "scope there is the next target" % (gap, 100 * share))
    top = max(rows, key=lambda r: r[4])
    return ("ledger over-predicts by %.3f s (%.1f%% of sim.run); the "
            "largest predicted row, %s (%.3f s), is the first suspect: its "
            "isolated probe costs more per op than the same call in the run"
            % (-gap, -100 * share, top[0], top[4]))


def render_ledger(workload, seed, rows, metrics):
    lines = ["ledger: %s seed %d, host seconds per layer "
             "(count x probed ns/op; * = derived count)" % (workload, seed),
             "%-10s %-24s %16s %10s %12s %12s"
             % ("layer", "count", "ops", "ns/op", "predicted_s", "measured_s")]
    for layer, name, count, ns, pred, meas in rows:
        mark = "*" if name in DERIVED else " "
        lines.append("%-10s %-24s %16.0f %10.2f %12.4f %12s"
                     % (layer, name + mark, count, ns, pred,
                        "-" if meas is None else "%.4f" % meas))
    lines.append("%-10s %-24s %16s %10s %12.4f %12.4f"
                 % ("total", "sim.run (inclusive)", "", "",
                    metrics["ledger.predicted_s"], metrics["ledger.measured_s"]))
    lines.append("ledger.coverage %.3f (ROADMAP target: within 15%%; "
                 "reported, not enforced)" % metrics["ledger.coverage"])
    for name, how in DERIVED.items():
        lines.append("* %s is derived: %s" % (name, how))
    lines.append(remainder_note(rows, metrics["ledger.predicted_s"],
                                metrics["ledger.measured_s"]))
    return "\n".join(lines)


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's final stdout line."""
    for name in metrics:
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
