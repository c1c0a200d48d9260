"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Covers the self-time arithmetic of spans, that the metric names and units the
harness prints match BENCHMARK.json, and that corrupted outputs trip the
correctness checks. Runs in a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
from monowave.gaussian import check_nondegenerate, child_rng, sample_uniform  # noqa: E402
from monowave.nodal import DegenerateSampleError  # noqa: E402
from spans import NullTracer, Span, Tracer, covered, root_union, self_time_by_name, self_times  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union counts once
            Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
            Span("a.inner", 1.5, 2.0, 1, 0),  # grandchild: only a loses it
        ]
        self.assertEqual(self_times(spans), [5.0, 1.5, 3.0, 3.0, 0.5])
        self.assertEqual(self_time_by_name(spans + [Span("a", 20.0, 21.0, None, 1)])["a"], 2.5)

    def test_covered_and_root_union(self):
        self.assertEqual(covered([]), 0.0)
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(covered([(0, 2), (1, 3)], lo=1.5, hi=2.5), 1.0)
        roots = [Span("t", 0.0, 4.0, None, 0), Span("t", 2.0, 6.0, None, 1),
                 Span("x", 1.0, 9.0, 0, 0)]
        self.assertEqual(root_union(roots), 6.0)

    def test_tracer_records_parents_trials_and_counts(self):
        tr = Tracer()
        with tr.span("trial", trial=7):
            with tr.span("grid.fill"):
                pass
            tr.count("grid.vertices", 5)
        with tr.span("stats.covariance"):
            pass
        names = [(s.name, s.parent, s.trial) for s in tr.spans]
        self.assertEqual(names, [("trial", None, 7), ("grid.fill", 0, 7),
                                 ("stats.covariance", None, None)])
        self.assertTrue(all(s.end >= s.start for s in tr.spans))
        self.assertTrue(all(t >= 0 for t in self_times(tr.spans)))
        self.assertEqual(tr.counts["grid.vertices"], 5)

    def test_cpu_rotation_restores_affinity(self):
        before = os.sched_getaffinity(0)
        with child.visiting_all_cpus(period=0.005):
            time.sleep(0.05)
        self.assertEqual(os.sched_getaffinity(0), before)

    def test_nearest_rank(self):
        vals = [float(v) for v in range(1, 51)]
        self.assertEqual(child.nearest_rank(vals, 0.8), 40.0)  # ten values beyond it
        self.assertEqual(child.nearest_rank(vals, 0.5), 25.0)
        self.assertEqual(run.upper_percentile(vals), "p80 40")


class MetricNames(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self):
        declared = {e["name"]: e["unit"] for e in self.spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        res = {"ops": [{"wall": 2.0, "cpu": 3.0, "error": None}], "excluded": 1, "draws": 50,
               "peak_rss_mb": 100.0}
        metrics = run.metrics_for(0, run.end_to_end([0.5, 0.25, 0.75], res), self.spec)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertEqual(metrics["kept_frac"]["value"], 0.98)
        self.assertEqual(metrics["setup_s"]["value"], 0.5)

    def test_per_layer_names_and_units(self):
        declared = {e["name"]: e["unit"] for e in self.spec["per_layer"]}
        self.assertEqual(declared, child.PER_LAYER)
        tr = Tracer()
        with tr.span("trial", trial=0):
            with tr.span("gaussian.probe"):
                pass
        tr.count("gaussian.probe_calls")
        layers = child.layer_metrics(tr, [1.0], [1.25], cli=True)
        metrics = run.metrics_for(1, layers, self.spec)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertEqual(metrics["gaussian.probe_calls"]["value"], 1)
        self.assertEqual(metrics["trace.overhead_s"]["value"], 0.25)
        self.assertEqual(child.layer_metrics(Tracer(), [1.0], [], cli=False)["trace.overhead_s"], 0.0)

    def test_every_exclusion_reason_has_a_metric(self):
        for msg in [*child.EXCLUSION_REASONS, "something new"]:
            self.assertIn(child.exclusion_key(DegenerateSampleError(msg)), child.PER_LAYER)
        key = child.exclusion_key(DegenerateSampleError("component adjacency is not a tree"))
        self.assertEqual(key, "nodal.excluded.not_a_tree")

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(run.WORKLOADS), sorted(child.WORKLOADS))


class ToyWave(child.WaveReport):
    centers, samples = 3, 60


class ToyMesh(child.Mesh3d):
    M, W, h = 64, 1.2, 0.1


class CorruptedOutputs(unittest.TestCase):
    def test_wave_report_checks_and_replay(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = ToyWave(3, Path(tmp))
            out = wl.run_op(0)
            self.assertEqual(wl.check_op(out), [])
            self.assertEqual(wl.replay(Tracer(), 0, out), [])

            path = Path(tmp) / "op0" / "doubling.csv"
            lines = path.read_text().splitlines()
            head = lines[0].split(",")
            row = lines[5].split(",")
            row[head.index("tail")] = "1.5"
            lines[5] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")
            bad = wl.read(Path(tmp) / "op0")
            self.assertTrue(any("outside [0, 1]" in p for p in wl.check_op(bad)))
            self.assertTrue(any("increase" in p for p in wl.check_op(bad)))

            (Path(tmp) / "op0" / "covariance.csv").unlink()
            with self.assertRaises(child.OpFailed):
                wl.read(Path(tmp) / "op0")

        bad = dict(out, cov_predicted=[0.9] + out["cov_predicted"][1:])
        self.assertTrue(wl.check_op(bad))
        bad = dict(out, push=[out["push"][0] * (1 + 1e-9)] + out["push"][1:])
        self.assertEqual(len(wl.replay(Tracer(), 0, bad)), 1)

    def test_ns_check_and_independent_probe(self):
        ref = {"mean": 0.12870438000033374, "excluded": 1}
        good = {"mean": 0.12870438000033374, "excluded": 1, "trials": 50}
        self.assertEqual(child.check_ns(good, ref, 50), [])
        self.assertEqual(len(child.check_ns(dict(good, mean=0.1287044), ref, 50)), 1)
        self.assertEqual(len(child.check_ns(dict(good, excluded=0), ref, 50)), 1)
        self.assertEqual(len(child.check_ns(dict(good, trials=49), ref, 50)), 1)
        for j in range(3):
            F = sample_uniform(2, 64, int(child_rng(5, j).integers(2**63)))
            for tau0 in (1e-3, 0.3, 10.0):
                self.assertEqual(child.separable_probe(F, 4.0, 0.1, tau0),
                                 check_nondegenerate(F, 4.0, 0.1, tau0).passed)

    def test_mesh_checks_and_replay(self):
        self.assertEqual(child.check_mesh_density([child.FOUR_OVER_SQRT3] * 3), [])
        self.assertEqual(len(child.check_mesh_density([child.FOUR_OVER_SQRT3 * 1.04])), 1)
        self.assertEqual(len(child.check_mesh_density([math.nan])), 1)
        wl = ToyMesh(4, Path("."))
        out = wl.run_op(0)
        self.assertEqual(wl.run_op(0, NullTracer()), out)
        tr = Tracer()
        self.assertEqual(wl.replay(tr, 0, out), [])
        self.assertEqual(tr.counts["grid.vertices"], out["counts"]["grid.vertices"])
        self.assertGreater(self_time_by_name(tr.spans)["nodal.zero"], 0.0)
        bad = dict(out, density=np.nextafter(out["density"], 0.0))
        self.assertEqual(len(wl.replay(Tracer(), 0, bad)), 1)


if __name__ == "__main__":
    unittest.main()
