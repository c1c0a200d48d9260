"""One benchmark workload in a fresh process: set up, time, check, trace.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

run.py starts this with the BLAS/OpenMP pools pinned to one thread and src/ on
PYTHONPATH. Each workload is a closed loop with one client: one operation at a
time, the next only after the previous one returned.

With --trace 0 the operation repeats while another one of average length still
ends within --seconds (and at least `min_ops` times). With --trace 1 a fixed
amount of work runs untraced, then the same work is replayed through the
library's public functions with a span around each call, and the per-layer
metrics come from those spans and counts. Single-threaded workloads move round
the allowed CPUs while they are measured (see visiting_all_cpus). --setup-only
stops after set-up, so run.py can sample the set-up time.

The last stdout line is one JSON object: the monotonic time at which set-up
ended, per-operation wall and CPU seconds with any failure reason, exclusion
counts, peak RSS, the environment and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import monowave
from monowave import cli
from monowave.directions import empirical_measure, generate_uniform_directions
from monowave.field import make_wave
from monowave.gaussian import check_nondegenerate, child_rng, sample_atomic, sample_uniform
from monowave.grid import plane_wave_grid, sample_on_grid
from monowave.growth import doubling_tail
from monowave.nodal import (
    DegenerateSampleError,
    build_nesting_tree,
    classify_topology,
    label_domains,
    nodal_volume,
)
from monowave.stats import covariance_compare, pushforward_distance

from spans import NullTracer, Tracer, root_union, self_time_by_name

# ---------------------------------------------------------------------------
# per-layer metrics

# DegenerateSampleError messages raised by monowave.nodal, by metric suffix
EXCLUSION_REASONS = {
    "an interior zero piece does not separate exactly two components": "piece_not_two_sided",
    "two components share two separating pieces": "shared_pieces",
    "no component reaches the window boundary": "no_boundary_component",
    "component adjacency is not a tree": "not_a_tree",
    "an interior zero curve is not closed": "open_curve",
    "an interior zero surface is not a closed 2-manifold": "non_manifold",
    "mesh Euler characteristic is not that of a closed surface": "bad_euler",
}


def exclusion_key(exc: DegenerateSampleError) -> str:
    return "nodal.excluded." + EXCLUSION_REASONS.get(str(exc), "other")


# metric -> span name; the value is the summed self time of those spans
TIME_METRICS = {
    "gaussian.probe_s": "gaussian.probe",
    "gaussian.draw_s": "gaussian.draw",
    "grid.fill_s": "grid.fill",
    "nodal.label_s": "nodal.label",
    "nodal.zero_s": "nodal.zero",
    "nodal.topology_s": "nodal.topology",
    "nodal.tree_s": "nodal.tree",
    "field.eval_s": "field.eval",
    "growth.doubling_self_s": "growth.doubling",
    "stats.pushforward_self_s": "stats.pushforward",
    "stats.covariance_s": "stats.covariance",
}
COUNT_METRICS = (
    "gaussian.probe_calls",
    "gaussian.probe_failed",
    "gaussian.probe_terms",  # computed: probe points x waves x (m + 1)
    "gaussian.draws",
    "grid.vertices",
    "grid.terms",  # computed: vertices x waves
    "nodal.components",
    "nodal.zero_elements",
    "nodal.zero_pieces",
    "nodal.interior",
    *("nodal.excluded." + k for k in [*EXCLUSION_REASONS.values(), "other"]),
    "field.points",
    "field.terms",  # computed: points x waves
    "growth.centers",
)
PER_LAYER = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "stats.trial_ms_p50": "ms",
    "stats.trial_ms_p80": "ms",
    "cli.other_s": "s",  # untraced CLI wall minus the wall its traced spans cover
    "trace.overhead_s": "s",  # traced minus untraced median wall of one operation
}


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(1, math.ceil(q * len(sorted_vals))) - 1]


def layer_metrics(tr: Tracer, untraced: list[float], traced: list[float], cli: bool) -> dict:
    """Per-layer metrics of one traced replay; walls are per operation."""
    self_s = self_time_by_name(tr.spans)
    out: dict = {name: self_s.get(span, 0.0) for name, span in TIME_METRICS.items()}
    unknown = set(tr.counts) - set(COUNT_METRICS)
    if unknown:
        raise KeyError(f"counters without a declared metric: {sorted(unknown)}")
    out.update({name: int(tr.counts.get(name, 0)) for name in COUNT_METRICS})
    trial_ms = sorted(1e3 * (s.end - s.start) for s in tr.spans if s.name == "trial")
    out["stats.trial_ms_p50"] = nearest_rank(trial_ms, 0.5)
    out["stats.trial_ms_p80"] = nearest_rank(trial_ms, 0.8)
    out["cli.other_s"] = sum(untraced) - root_union(tr.spans) if cli else 0.0
    out["trace.overhead_s"] = (  # no replay when every untraced operation failed
        statistics.median(traced) - statistics.median(untraced) if traced else 0.0)
    return out


def attribution(tr: Tracer) -> list[str]:
    """Readable notes: span self times, largest first, and shares of trial time."""
    self_s = self_time_by_name(tr.spans)
    trial_s = sum(s.end - s.start for s in tr.spans if s.name == "trial")
    notes = []
    for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = f" ({100 * t / trial_s:.1f}% of traced trial time)" if trial_s and name != "trial" else ""
        notes.append(f"span {name}: self {t:.4f} s{share}")
    return notes


# ---------------------------------------------------------------------------
# helpers shared by the workloads


class OpFailed(RuntimeError):
    """A CLI exit other than 0, or a missing output file."""


def write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    cli.load_config(path)  # rejected here, at set-up, if the CLI would reject it
    return path


def run_cli(cfg: Path, outdir: Path, seed: int, threads: int) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["--config", str(cfg), "--out", str(outdir),
                         "--seed", str(seed), "--threads", str(threads)])
    if code != 0:
        raise OpFailed(f"{cfg.name} exited {code}: {buf.getvalue().strip()[-300:]}")


def read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise OpFailed(f"missing {path.name}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def same(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def ball_volume(m: int, r: float) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1) * r**m


def zero_elements(geom) -> int:
    return len(geom.segments) if geom.dim == 2 else len(geom.triangles)


def nodal_counts(grid, dec, geom, waves: int) -> Counter:
    return Counter({
        "grid.vertices": grid.values.size,
        "grid.terms": grid.values.size * waves,
        "nodal.components": dec.total_components,
        "nodal.interior": dec.interior_count,
        "nodal.zero_elements": zero_elements(geom),
        "nodal.zero_pieces": len(geom.measures),
    })


class Workload:
    name = ""
    min_ops = 1  # operations per untraced run, at least
    trace_ops = 1  # untraced operations a traced run repeats with spans
    cli = True  # runs through monowave.cli, so cli.other_s is defined
    threads = 1  # worker threads of one operation

    def run_op(self, i: int):
        raise NotImplementedError

    def check_op(self, out) -> list[str]:
        return []

    def check_run(self, outs: list) -> list[str]:
        return []

    def exclusions(self, out) -> tuple[int, int]:
        """(excluded draws, draws attempted) of one operation."""
        return 0, 1

    def replay(self, tr: Tracer, i: int, want) -> list[str]:
        """Operation i again through public functions, with spans; compared to want."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ns-uniform-2d: CLI ns-estimate, uniform measure


def probe_lattice(m: int, W: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Bulk probe points of check_nondegenerate: axis coords and the B(W+1) mask."""
    coords = h * np.arange(-np.ceil((W + 1) / h), np.ceil((W + 1) / h) + 1)
    pts = np.stack(np.meshgrid(*([coords] * m), indexing="ij"), axis=-1)
    return coords, np.linalg.norm(pts, axis=-1) <= W + 1


def circle_points(W: float, h: float) -> np.ndarray:
    n = max(64, int(np.ceil(2 * np.pi * W / h)))
    a = 2 * np.pi * np.arange(n) / n
    return W * np.column_stack([np.cos(a), np.sin(a)])


def separable_probe(F, W: float, h: float = 0.1, tau0: float = 1e-3) -> bool:
    """Independent 2D nondegeneracy decision from m+1 separable grid fills.

    The bulk points lie on h Z^2, so |F| + |grad F| comes from plane_wave_grid
    with coefficients c and 2 pi i v_a c; the circle part is evaluated
    pointwise. Agrees with check_nondegenerate's minima to rounding.
    """
    freqs, c = F.plane_waves()
    coords, inside = probe_lattice(2, W, h)
    origin = np.full(2, coords[0])
    shape = inside.shape
    val = plane_wave_grid(freqs, c, origin, shape, h)
    grad_sq = sum(
        plane_wave_grid(freqs, 2j * np.pi * freqs[:, a] * c, origin, shape, h) ** 2
        for a in range(2)
    )
    min_bulk = float((np.abs(val) + np.sqrt(grad_sq))[inside].min())
    pts = circle_points(W, h)
    g = F.gradient(pts)
    radial = (np.sum(pts * g, axis=-1) / W**2)[:, None] * pts
    min_sph = float((np.abs(F.value(pts)) + np.linalg.norm(g - radial, axis=-1)).min())
    return min_bulk > tau0 and min_sph > tau0


def check_ns(out: dict, ref: dict, trials: int) -> list[str]:
    """ns.csv against the replay: same excluded count, same mean to 1e-12."""
    problems = []
    if out["trials"] != trials:
        problems.append(f"ns.csv reports {out['trials']} trials, expected {trials}")
    if out["excluded"] != ref["excluded"]:
        problems.append(f"ns.csv excluded {out['excluded']}, replay {ref['excluded']}")
    if not same(out["mean"], ref["mean"]):
        problems.append(f"ns.csv mean {out['mean']!r}, replay {ref['mean']!r}")
    return problems


class NsUniform2d(Workload):
    name = "ns-uniform-2d"
    # h = 0.05, not the coarser 0.1: at 0.1 about 9% of draws are excluded, and
    # a seed with more than 10 of 50 aborts the CLI (exit 3) in about 1 run in 150
    M, m, W, h, trials, threads = 1024, 2, 4.0, 0.05, 50, 2
    probe_h = 0.1  # the pitch ns_constant_estimate passes to check_nondegenerate

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        self.cfg = write_config(out / "ns.cfg", command="ns-estimate", m=self.m,
                                generator="uniform", W=self.W, h=self.h, trials=self.trials)
        _, inside = probe_lattice(self.m, self.W, self.probe_h)
        self.probe_points = int(inside.sum()) + len(circle_points(self.W, self.probe_h))
        self.vol = ball_volume(self.m, self.W)
        self._reference = None

    def run_op(self, i: int) -> dict:
        d = self.out / f"op{i}"
        run_cli(self.cfg, d, self.seed, self.threads)
        row = read_csv(d / "ns.csv")[0]
        if row["kind"] != "density":
            raise OpFailed("ns.csv does not start with the density row")
        return {"mean": float(row["mean"]), "excluded": int(row["excluded"]),
                "trials": int(row["trials"])}

    def exclusions(self, out: dict) -> tuple[int, int]:
        return out["excluded"], out["trials"]

    def trial(self, j: int, tr, probe) -> tuple[float | None, Counter]:
        """The per-trial steps of ns_constant_estimate(with_topology=True)."""
        counts = Counter({"gaussian.draws": 1, "gaussian.probe_calls": 1,
                          "gaussian.probe_terms": self.probe_points * self.M * (self.m + 1)})
        with tr.span("trial", trial=j):
            with tr.span("gaussian.draw"):
                F = sample_uniform(self.m, self.M, int(child_rng(self.seed, j).integers(2**63)))
            with tr.span("gaussian.probe"):
                ok = probe(F)
            if not ok:
                counts["gaussian.probe_failed"] += 1
                return None, counts
            try:
                with tr.span("grid.fill"):
                    g = sample_on_grid(F, np.zeros(self.m), self.W, self.h)
                with tr.span("nodal.label"):
                    dec = label_domains(g)
                with tr.span("nodal.zero"):
                    geom = nodal_volume(g)
                counts.update(nodal_counts(g, dec, geom, self.M))
                with tr.span("nodal.topology"):
                    classify_topology(dec)
                with tr.span("nodal.tree"):
                    build_nesting_tree(dec)
            except DegenerateSampleError as exc:
                counts[exclusion_key(exc)] += 1
                return None, counts
        return dec.interior_count / self.vol, counts

    def replay_trials(self, tr, probe) -> dict:
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            results = list(pool.map(lambda j: self.trial(j, tr, probe), range(self.trials)))
        dens = [d for d, _ in results if d is not None]
        return {"mean": float(np.array(dens).mean()) if dens else math.nan,
                "excluded": len(results) - len(dens),
                "counts": [c for _, c in results]}

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = self.replay_trials(
                NullTracer(), lambda F: separable_probe(F, self.W, self.probe_h))
        return self._reference

    def check_op(self, out: dict) -> list[str]:
        return check_ns(out, self.reference(), self.trials)

    def replay(self, tr: Tracer, i: int, want: dict) -> list[str]:
        traced = self.replay_trials(
            tr, lambda F: check_nondegenerate(F, self.W, self.probe_h).passed)
        for c in traced["counts"]:
            for name, n in c.items():
                tr.count(name, n)
        problems = check_ns(want, traced, self.trials)
        if traced["counts"] != self.reference()["counts"]:
            problems.append("traced replay counts differ from the untraced reference")
        return problems


# ---------------------------------------------------------------------------
# mesh-3d: library-level 3D zero sets, no probe

FOUR_OVER_SQRT3 = 4 / math.sqrt(3)  # Kac-Rice area density, uniform measure, m = 3


def check_mesh_density(densities: list[float], rel: float = 0.03) -> list[str]:
    if not densities:
        return ["no draw completed"]
    mean = float(np.mean(densities))
    off = abs(mean - FOUR_OVER_SQRT3) / FOUR_OVER_SQRT3
    if not off <= rel:
        return [f"mean zero-area density {mean!r} is {100 * off:.2f}% off 4/sqrt(3)"]
    return []


class Mesh3d(Workload):
    name = "mesh-3d"
    M, m, W, h = 512, 3, 3.0, 0.06
    min_ops, trace_ops = 3, 30
    cli = False

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def run_op(self, i: int, tr=NullTracer()) -> dict:
        counts = Counter({"gaussian.draws": 1})
        excluded = None
        with tr.span("trial", trial=i):
            with tr.span("gaussian.draw"):
                F = sample_uniform(self.m, self.M, int(child_rng(self.seed, i).integers(2**63)))
            with tr.span("grid.fill"):
                g = sample_on_grid(F, np.zeros(self.m), self.W, self.h)
            with tr.span("nodal.label"):
                dec = label_domains(g)
            with tr.span("nodal.zero"):
                geom = nodal_volume(g)
            counts.update(nodal_counts(g, dec, geom, self.M))
            try:
                with tr.span("nodal.topology"):
                    classify_topology(dec)
                with tr.span("nodal.tree"):
                    build_nesting_tree(dec)
            except DegenerateSampleError as exc:
                excluded = exclusion_key(exc)
                counts[excluded] += 1
        return {"density": geom.density, "excluded": excluded, "counts": counts}

    def exclusions(self, out: dict) -> tuple[int, int]:
        return int(out["excluded"] is not None), 1

    def check_run(self, outs: list) -> list[str]:
        return check_mesh_density([o["density"] for o in outs])

    def replay(self, tr: Tracer, i: int, want: dict) -> list[str]:
        got = self.run_op(i, tr)
        for name, n in got["counts"].items():
            tr.count(name, n)
        return [] if got == want else [f"draw {i}: traced replay differs from the untraced run"]


# ---------------------------------------------------------------------------
# wave-report: CLI doubling + compare on one deterministic wave


def check_doubling(q: list[float], tails: list[float]) -> list[str]:
    problems = []
    if not tails:
        problems.append("doubling.csv has no rows")
    if any(not 0.0 <= t <= 1.0 for t in tails):
        problems.append("a doubling tail lies outside [0, 1]")
    if any(b <= a for a, b in zip(q, q[1:])):
        problems.append("doubling Q column is not increasing")
    if any(b > a for a, b in zip(tails, tails[1:])):
        problems.append("doubling tails increase with Q")
    return problems


def check_covariance(labels: list[str], predicted: list[float]) -> list[str]:
    lag0 = [p for lab, p in zip(labels, predicted) if float(lab) == 0.0]
    if len(lag0) != 1 or not abs(lag0[0] - 1.0) <= 1e-12:
        return [f"predicted covariance at lag 0 is {lag0}, not 1"]
    return []


class TimedWave:
    """Wave proxy for the library: times and counts every evaluation."""

    def __init__(self, wave, tr: Tracer):
        self.dirs = wave.dirs
        self._wave, self._tr = wave, tr

    def value(self, x):
        with self._tr.span("field.eval"):
            v = self._wave.value(x)
        n = np.asarray(x).size // self.dirs.dim
        self._tr.count("field.points", n)
        self._tr.count("field.terms", n * self.dirs.count)
        return v


class WaveReport(Workload):
    name = "wave-report"
    m, N, R, W, centers, samples = 2, 64, 200.0, 2.0, 20, 1000

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        common = dict(m=self.m, N=self.N, generator="uniform", R=self.R, W=self.W)
        self.doubling_cfg = write_config(out / "doubling.cfg", command="doubling",
                                         samples=self.centers, **common)
        self.compare_cfg = write_config(out / "compare.cfg", command="compare",
                                        samples=self.samples, **common)

    def run_op(self, i: int) -> dict:
        d = self.out / f"op{i}"
        run_cli(self.doubling_cfg, d, self.seed, 1)
        run_cli(self.compare_cfg, d, self.seed, 1)
        return self.read(d)

    @staticmethod
    def read(d: Path) -> dict:
        dbl = read_csv(d / "doubling.csv")
        push = read_csv(d / "pushforward.csv")
        cov = read_csv(d / "covariance.csv")
        return {
            "q": [float(r["Q"]) for r in dbl],
            "tails": [float(r["tail"]) for r in dbl],
            "push": [float(r["estimate"]) for r in push],
            "threshold": float(push[-1]["tolerance"]),
            "cov_labels": [r["label"] for r in cov],
            "cov_predicted": [float(r["predicted"]) for r in cov],
            "cov": [float(r["estimate"]) for r in cov],
        }

    def check_op(self, out: dict) -> list[str]:
        return (check_doubling(out["q"], out["tails"])
                + check_covariance(out["cov_labels"], out["cov_predicted"]))

    def replay(self, tr: Tracer, i: int, want: dict) -> list[str]:
        # the CLI's wave: directions from the seed, phases from child stream 1
        dirs = generate_uniform_directions(self.m, self.N, self.seed)
        wave = make_wave(dirs, seed=int(child_rng(self.seed, 1).integers(2**63)))
        timed = TimedWave(wave, tr)
        measure = empirical_measure(dirs)

        def sampler(s: int):
            with tr.span("gaussian.draw"):
                F = sample_atomic(measure, s)
            tr.count("gaussian.draws")
            return F

        with tr.span("growth.doubling"):
            st = doubling_tail(timed, self.R, self.W, self.centers, self.seed)
        tr.count("growth.centers", self.centers)
        y_points = np.zeros((2, self.m))
        y_points[1, 0] = self.W / 2
        with tr.span("stats.pushforward"):
            push = pushforward_distance(timed, self.R, sampler, y_points, self.samples, self.seed)
        lags = np.zeros((3, self.m))
        lags[1, 0], lags[2, 0] = self.W / 2, self.W
        with tr.span("stats.covariance"):
            cov = covariance_compare(timed, self.R, self.W, lags, self.samples, self.seed)

        got = {
            "tails": list(st.tail(np.array(want["q"]))),
            "push": list(push.estimate),
            "threshold": float(push.tolerance[-1]),
            "cov": list(cov.estimate),
        }
        problems = []
        for key, val in got.items():
            ref = want[key] if isinstance(val, list) else [want[key]]
            val = val if isinstance(val, list) else [val]
            if len(val) != len(ref) or not all(same(a, b) for a, b in zip(val, ref)):
                problems.append(f"traced replay {key} differs from the CLI's CSV")
        return problems


WORKLOADS = {w.name: w for w in (NsUniform2d, Mesh3d, WaveReport)}


# ---------------------------------------------------------------------------
# driver


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "monowave": monowave.__version__,
    }


@contextlib.contextmanager
def visiting_all_cpus(period: float = 0.1):
    """Move the calling thread round the allowed CPUs every `period` seconds.

    On small shared VMs the speed of each vCPU can drift by tens of percent
    over tens of seconds, independently of the other vCPUs. A single-threaded
    operation that stays on one vCPU inherits that drift run by run; one that
    visits all of them in turn sees their average.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        k = 0
        while not stop.wait(period):
            k += 1
            os.sched_setaffinity(tid, {cpus[k % len(cpus)]})

    mover = threading.Thread(target=rotate, daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, cpus)


def timed_op(wl: Workload, i: int) -> tuple[dict, object]:
    t0, c0 = time.perf_counter(), cpu_seconds()
    out, error = None, None
    try:
        out = wl.run_op(i)
    except Exception as exc:  # one failed operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    op = {"wall": time.perf_counter() - t0, "cpu": cpu_seconds() - c0, "error": error}
    if out is not None:
        problems = wl.check_op(out)
        if problems:
            op["error"] = "; ".join(problems)
    return op, out


def run(wl: Workload, seconds: float, trace: bool) -> dict:
    spread = visiting_all_cpus() if wl.threads == 1 else contextlib.nullcontext()
    with spread:
        return measure(wl, seconds, trace)


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds
    ops, outs = [], []
    while True:
        op, out = timed_op(wl, len(ops))
        ops.append(op)
        outs.append(out)
        if trace:
            if len(ops) >= wl.trace_ops:
                break
        elif len(ops) >= wl.min_ops:
            # start another operation only if one of average length ends in time
            mean_wall = sum(o["wall"] for o in ops) / len(ops)
            if time.monotonic() + mean_wall > deadline:
                break

    done = [o for o in outs if o is not None]
    run_problems = wl.check_run(done) if done else ["no operation completed"]
    excluded = sum(wl.exclusions(o)[0] for o in done)
    draws = sum(wl.exclusions(o)[1] for o in done)
    result = {"ops": ops, "excluded": excluded, "draws": draws, "run_problems": run_problems}
    if trace:
        tr = Tracer()
        replays = []
        for i, want in enumerate(outs):
            if want is None:
                continue  # its failure is already counted
            t0, c0 = time.perf_counter(), cpu_seconds()
            problems = wl.replay(tr, i, want)
            replays.append({"wall": time.perf_counter() - t0, "cpu": cpu_seconds() - c0,
                            "error": "; ".join(problems) or None})
        result["replays"] = replays
        result["layers"] = layer_metrics(tr, [o["wall"] for o in ops],
                                         [r["wall"] for r in replays], wl.cli)
        result["notes"] = attribution(tr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    ready = time.monotonic()
    if args.setup_only:
        result = {"ready": ready}
    else:
        result = run(wl, args.seconds, bool(args.trace))
        result.update(ready=ready, env=environment(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
