#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic (no build, no simulation).

    python3 perfbench/test_bench.py

Covers metric naming, ledger arithmetic on a fixed fixture, the
correctness rules (a wrong expected fingerprint raises the failure
count without crashing), the fingerprint store, and run.py's refusal
to report anything from a tree that holds no simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402


def fixture_pass(fingerprint="aaaa", jobs=("j0", "j1"), accesses=100,
                 table="T\n", errors=None, pass_error=""):
    return {
        "wall_s": 2.0, "setup_s": 0.5, "parse_s": 0.0, "expand_s": 0.001,
        "calibrate_s": 0.4, "run_s": 1.4, "render_s": 0.1,
        "accesses": accesses, "fingerprint": fingerprint,
        "job_fingerprints": list(jobs),
        "job_errors": list(errors or [""] * len(jobs)),
        "pass_error": pass_error, "table": table, "events": "",
    }


PINS = {"grid-a": {"seed": 1, "accesses": 100, "fingerprint": "aaaa",
                   "golden": None}}


class Names(unittest.TestCase):
    def test_every_emitted_name_is_well_formed(self):
        names = [n for n, _ in bench.END_TO_END + bench.PER_LAYER]
        names += list(bench.WORKLOADS)
        for name in names:
            self.assertRegex(name, bench.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_exactly_the_emitted_metrics(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [n for n, _ in bench.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         bench.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_result_line_rejects_a_bad_name(self):
        with self.assertRaises(ValueError):
            bench.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})
        line = bench.result_line(True, 3, 0, {"wall_s": 1.5}, {"wall_s": "s"})
        self.assertEqual(json.loads(line),
                         {"correct": True, "attempted": 3, "failed": 0,
                          "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}})


class Ledger(unittest.TestCase):
    COUNTS = {"Static": {"llc.hits": 600.0, "llc.misses": 400.0,
                         "runtime.reconfigurations": 10.0,
                         "dnuca.umonNN.accesses": 200.0,
                         "dnuca.umonNN.sampledAccesses": 50.0,
                         "mem.accesses": 400.0, "noc.hops": 3000.0,
                         "dnuca.vtb.installs": 7.0,
                         "dnuca.vtb.invalidations": 30.0}}
    PROBE = {"job": 0, "design": "Static", "construct_ms": 2.0,
             "steps_per_access": 1.5, "ns_per_step": 10.0,
             "ns_per_event": 20.0, "ns_per_plan": 5.0, "ns_per_arrive": 300.0,
             "ns_per_cache_access": 100.0, "umon_access_share": 0.8,
             "ns_per_umon_access": 50.0,
             "ns_per_route": 10.0, "ns_per_mem_access": 40.0,
             "ns_per_invalidate": 3.0, "us_per_policy_reconfigure": 150.0,
             "us_per_install": 80.0}
    PROFILE = [{"name": "sim.run", "calls": 5, "inclusive_s": 1e-4,
                "exclusive_s": 9e-5},
               {"name": "sim.epoch.repartition", "calls": 10,
                "inclusive_s": 1e-5, "exclusive_s": 1e-5}]

    def test_arithmetic_on_fixture(self):
        rows, m = bench.ledger(self.COUNTS, [self.PROBE], self.PROFILE)
        # 1000 accesses, 1500 steps, 1000 + 1500 + 2*10 events.
        self.assertEqual(m["cpu.llc_accesses"], 1000.0)
        self.assertEqual(m["workloads.steps"], 1500.0)
        self.assertEqual(m["sim.events"], 2520.0)
        self.assertAlmostEqual(m["sim.self_s"], 2520 * 20e-9)
        self.assertAlmostEqual(m["workloads.self_s"], 1500 * 10e-9)
        self.assertAlmostEqual(m["cache.self_s"], 1000 * 100e-9)
        self.assertEqual(m["dnuca.umon_accesses"], 800.0)
        self.assertAlmostEqual(m["dnuca.self_s"], 800 * 50e-9)
        self.assertEqual(m["noc.routes"], 2400.0)
        self.assertAlmostEqual(m["noc.self_s"], 2400 * 10e-9)
        self.assertAlmostEqual(m["mem.self_s"], 400 * 40e-9)
        # cpu = plan + inclusive arrive, minus the layers inside it.
        cpu = 1000 * 305e-9 - (1000 * 100e-9 + 800 * 50e-9 + 2400 * 10e-9
                               + 400 * 40e-9)
        self.assertAlmostEqual(m["cpu.self_s"], cpu)
        predicted = (2520 * 20e-9 + 1500 * 10e-9 + cpu + 1000 * 100e-9
                     + 800 * 50e-9 + 2400 * 10e-9 + 400 * 40e-9 + 1e-5)
        self.assertAlmostEqual(m["ledger.predicted_s"], predicted)
        self.assertEqual(m["ledger.measured_s"], 1e-4)
        self.assertAlmostEqual(m["ledger.coverage"], predicted / 1e-4)
        self.assertEqual(m["cache.hit_ratio"], 0.6)
        self.assertEqual(m["dnuca.umon_sample_ratio"], 0.25)
        self.assertAlmostEqual(m["cache.ns_per_invalidate"], 3.0)
        self.assertAlmostEqual(sum(r[4] for r in rows), predicted)

    def test_umon_count_is_derived_not_the_epoch_gauge(self):
        # The dump's dnuca.umonNN.accesses is an end-of-run gauge (about
        # two epochs of activity); the count comes from LLC accesses.
        counts = {"Static": dict(self.COUNTS["Static"],
                                 **{"dnuca.umonNN.accesses": 3.0,
                                    "dnuca.umonNN.sampledAccesses": 1.0})}
        every = dict(self.PROBE, umon_access_share=1.0)
        rows, m = bench.ledger(counts, [every], self.PROFILE)
        self.assertEqual(m["dnuca.umon_accesses"], 1000.0)
        self.assertAlmostEqual(m["dnuca.self_s"], 1000 * 50e-9)
        self.assertAlmostEqual(m["dnuca.umon_sample_ratio"], 1.0 / 3.0)
        self.assertIn("dnuca.umon_accesses", bench.DERIVED)
        text = bench.render_ledger("w", 1, rows, m)
        self.assertIn("dnuca.umon_accesses*", text)

    def test_designs_are_priced_with_their_own_probes(self):
        counts = dict(self.COUNTS, Jumanji=dict(self.COUNTS["Static"]))
        fast = dict(self.PROBE, design="Jumanji", ns_per_event=10.0)
        _, m = bench.ledger(counts, [self.PROBE, fast], self.PROFILE)
        self.assertAlmostEqual(m["sim.self_s"], 2520 * 30e-9)
        self.assertAlmostEqual(m["sim.ns_per_event"], 15.0)

    def test_report_marks_derived_counts_and_names_the_remainder(self):
        profile = [dict(self.PROFILE[0], inclusive_s=1e-3), self.PROFILE[1]]
        rows, m = bench.ledger(self.COUNTS, [self.PROBE], profile)
        text = bench.render_ledger("w", 1, rows, m)
        self.assertIn("sim.events*", text)
        self.assertIn("workloads.steps*", text)
        self.assertIn("largest unexplained remainder", text)
        over = bench.remainder_note(rows, 2.0, 1.0)
        self.assertIn("over-predicts", over)


class Checks(unittest.TestCase):
    def test_clean_passes(self):
        passes = [fixture_pass(), fixture_pass()]
        attempted, failed, problems, ref = bench.check_passes(
            passes, "grid-a", 1, HERE, pins=PINS)
        self.assertEqual((attempted, failed, problems), (4, 0, []))
        self.assertEqual(ref["jobs"], ["j0", "j1"])

    def test_wrong_expected_fingerprint_fails_without_crashing(self):
        pins = {"grid-a": dict(PINS["grid-a"], fingerprint="ffff")}
        attempted, failed, problems, _ = bench.check_passes(
            [fixture_pass()], "grid-a", 1, HERE, pins=pins)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertTrue(any("pinned ffff" in p for p in problems))

    def test_pins_apply_only_at_their_seed(self):
        pins = {"grid-a": dict(PINS["grid-a"], fingerprint="ffff")}
        _, failed, _, _ = bench.check_passes(
            [fixture_pass()], "grid-a", 2, HERE, pins=pins)
        self.assertEqual(failed, 0)

    def test_reference_mismatch_fails_only_that_job(self):
        ref = bench.pass_reference(fixture_pass())
        attempted, failed, problems, _ = bench.check_passes(
            [fixture_pass(jobs=("j0", "zz"))], "grid-b", 5, HERE, ref)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("job 1", problems[0])

    def test_failed_job_and_failed_pass_are_counted(self):
        passes = [fixture_pass(errors=["", "boom"]),
                  fixture_pass(pass_error="calibration failed")]
        attempted, failed, problems, _ = bench.check_passes(
            passes, "grid-b", 5, HERE)
        self.assertEqual((attempted, failed), (4, 3))
        self.assertEqual(len(problems), 2)

    def test_table_bytes_must_match(self):
        _, failed, _, _ = bench.check_passes(
            [fixture_pass(), fixture_pass(table="U\n")], "grid-b", 5, HERE)
        self.assertEqual(failed, 2)

    def test_store_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            store = bench.FingerprintStore(os.path.join(d, "fp"), "gen1")
            self.assertIsNone(store.load("g", 3))
            ref = bench.pass_reference(fixture_pass())
            store.save("g", 3, ref)
            self.assertEqual(store.load("g", 3), ref)

    def test_repinning_starts_a_fresh_store(self):
        repinned = {"grid-a": dict(PINS["grid-a"], fingerprint="bbbb")}
        self.assertNotEqual(bench.pins_digest(PINS),
                            bench.pins_digest(repinned))
        with tempfile.TemporaryDirectory() as d:
            old = bench.FingerprintStore(d, bench.pins_digest(PINS))
            old.save("g", 3, bench.pass_reference(fixture_pass()))
            new = bench.FingerprintStore(d, bench.pins_digest(repinned))
            self.assertIsNone(new.load("g", 3))


class Metrics(unittest.TestCase):
    def test_end_to_end_medians(self):
        doc = {"passes": [fixture_pass(), dict(fixture_pass(), wall_s=4.0),
                          dict(fixture_pass(), wall_s=3.0)],
               "setups": [0.3, 0.1, 0.2], "peak_rss_kb": 2048}
        events = [[{"type": "job", "ok": True, "simulate_s": s}]
                  for s in (1.0, 3.0, 2.0)]
        m, samples = bench.end_to_end(doc, events)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["sim_accesses_per_s"], 100 / 3.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual((m["job_p50_s"], samples), (2.0, 3))
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_driver_layer_from_events(self):
        events = [
            {"type": "run", "kind": "calibrations", "workers": 2, "wall_s": 0.5},
            {"type": "job", "worker": 0, "simulate_s": 3.0, "queue_wait_s": 0.0},
            {"type": "job", "worker": 1, "simulate_s": 2.0, "queue_wait_s": 0.0},
            {"type": "job", "worker": 1, "simulate_s": 2.0, "queue_wait_s": 2.0},
            {"type": "run", "kind": "jobs", "workers": 2, "wall_s": 4.0},
        ]
        m = bench.driver_layer(fixture_pass(), events)
        self.assertEqual(m["driver.worker_busy_ratio"], 7.0 / 8.0)
        self.assertEqual(m["driver.tail_idle_s"], 1.0)
        self.assertEqual(m["driver.queue_wait_p50_s"], 0.0)
        self.assertEqual(m["system.calibrate_s"], 0.5)
        self.assertEqual(m["driver.expand_s"], 0.001)

    def test_driver_layer_on_one_worker(self):
        # One worker has no tail to wait for; what it idles is the
        # driver's own time between jobs, which is never 0.
        events = [
            {"type": "job", "worker": 0, "simulate_s": 1.5, "queue_wait_s": 0.0},
            {"type": "job", "worker": 0, "simulate_s": 1.0, "queue_wait_s": 1.5},
            {"type": "run", "kind": "jobs", "workers": 1, "wall_s": 2.75},
        ]
        m = bench.driver_layer(fixture_pass(), events)
        self.assertAlmostEqual(m["driver.tail_idle_s"], 0.25)
        self.assertGreater(m["driver.tail_idle_s"], 0.0)
        self.assertAlmostEqual(m["driver.worker_busy_ratio"], 2.5 / 2.75)
        self.assertEqual(m["driver.queue_wait_p50_s"], 0.75)


class NoSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "kv_flash", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
