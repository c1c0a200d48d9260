"""Experiment driver: flat key=value configs in, CSV and SVG artifacts out.

One experiment per process. A config names a command plus its parameters; the
driver builds the wave or measure, runs the matching library routine, and
serializes the report. A config is refused where it is parsed, before any
directory or wave is made: a key that a command requires (listed next to its
runner in _RUNNERS) must appear in it, generator = file requires wave, and
generator = log-rational requires m = 2. Every report CSV starts with the
same seven meta columns {seed, n_samples, h, W, R, N, m}, followed by the
keys of its rows; floats are written with repr so a parse/serialize cycle is
byte-identical.

Each command resolves its wave or direction set once, and that is the one
source of m and N; the m and N keys only configure the uniform and
log-rational generators, so with generator=file a config that sets them is
refused. Measure selection for the ensemble commands (kacrice, ns-estimate,
discrepancy): a partition measure when K is set, the rotation-invariant
measure for generator=uniform, and otherwise the empirical measure of the
configured direction set. The rotation-invariant measure has no direction
set, so its reports leave N empty. ns-estimate and discrepancy share one
trial loop (stats._kept_draws): each draw is probed at h = 0.1, and both
exclude the same draws by reason under one 20% abort.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import stats
from .directions import (
    DirectionSet,
    empirical_measure,
    generate_uniform_directions,
    log_rational_directions,
)
from .field import (
    MonochromaticWave,
    PlaneWaveSum,
    bessel_j,
    make_wave,
)
from .gaussian import child_rng, measure_from_partition, uniform_measure
from .grid import ScalarGrid, sample_on_grid
from .growth import characteristic_function, doubling_tail, small_value_fraction
from .nodal import (
    DegenerateSampleError,
    build_nesting_tree,
    classify_topology,
    export_components_csv,
    label_domains,
    nodal_volume,
)
from .partition import build_partition

# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    command: str
    m: int = 2
    N: int = 64
    K: int | None = None
    delta: float = 1e-4
    W: float | None = None
    R: float | None = None
    h: float = 0.05
    seed: int = 0
    samples: int = 10000
    trials: int = 50
    t_max: float = 2.0
    p_max: int = 6
    beta: float = 0.1
    r: float | None = None
    wavenumber: float = 1.0
    generator: str = "uniform"
    coeffs: str = "random-phase"
    wave: str | None = None


_GENERATORS = ("uniform", "log-rational", "file")
_COEFF_MODES = ("random-phase", "all-ones")

# each key's converter is its ExperimentConfig annotation, an Optional's None dropped
_KEY_TYPES = {
    key: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for key, hint in get_type_hints(ExperimentConfig).items()
}
_EXPECTS = {int: "an integer", float: "a number"}


def parse_config_text(text: str) -> dict[str, str]:
    """key=value per line, # starts a comment, blank lines ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"config line {lineno}: expected key=value, got {body!r}")
        key, val = body.split("=", 1)
        key, val = key.strip(), val.strip()
        if key in raw:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = val
    return raw


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    kwargs: dict = {}
    for key, val in raw.items():
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        convert = _KEY_TYPES[key]
        try:
            kwargs[key] = convert(val)
        except ValueError:
            raise ValueError(
                f"config key {key!r} expects {_EXPECTS[convert]}, got {val!r}"
            ) from None
        if convert is float and not math.isfinite(kwargs[key]):
            raise ValueError(f"config key {key!r} expects a finite number, got {val!r}")
    if "command" not in kwargs:
        raise ValueError("config must set command=<name>")
    cfg = ExperimentConfig(**kwargs)
    if cfg.command not in _RUNNERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}, got {cfg.generator!r}")
    if cfg.coeffs not in _COEFF_MODES:
        raise ValueError(f"coeffs must be one of {_COEFF_MODES}, got {cfg.coeffs!r}")
    if cfg.samples < 2:
        raise ValueError(f"samples must be at least 2 (stderrs use ddof=1), got {cfg.samples}")
    if not cfg.h > 0:
        raise ValueError(f"grid spacing h must be positive, got {cfg.h}")
    if cfg.generator == "file" and {"m", "N"} & raw.keys():
        raise ValueError("generator = file takes m and N from the wave file; drop those keys")
    for key in _RUNNERS[cfg.command][1] + (("wave",) if cfg.generator == "file" else ()):
        if key not in raw:
            raise ValueError(f"command {cfg.command!r} requires config key {key!r}")
    # a path that names no file (an empty value names the working directory)
    if "wave" in raw and not Path(cfg.wave).is_file():
        raise ValueError(f"config key 'wave' names no file: {cfg.wave!r}")
    if cfg.generator == "log-rational" and cfg.m != 2:
        raise ValueError("log-rational directions exist only for m=2")
    return cfg


def load_config(path) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(Path(path).read_text()))


# ---------------------------------------------------------------------------
# wave and measure plumbing


def save_wave(wave: MonochromaticWave, path) -> None:
    """The one wave text format, written by gen-wave and read for generator=file.

    "m N", then N direction rows of m components, then N coefficient rows
    "re im", all at 17 significant digits so a load/save cycle is exact.
    """
    lines = [f"{wave.dirs.dim} {wave.dirs.count}"]
    for row in wave.dirs.vectors:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    for c in wave.coeffs:
        lines.append(f"{c.real:.17g} {c.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_wave(path) -> MonochromaticWave:
    with open(path) as fh:
        head = fh.readline()
        try:
            m, n = map(int, head.split())
        except ValueError:
            raise ValueError(f"wave file {path}: header must be 'm N', "
                             f"got {head.strip()!r}") from None
        vecs = np.loadtxt(fh, dtype=float, max_rows=n).reshape(n, m)
        cols = np.loadtxt(fh, dtype=float, max_rows=n).reshape(n, 2)
    return MonochromaticWave(DirectionSet(vecs), cols[:, 0] + 1j * cols[:, 1])


def _resolve_dirs(cfg: ExperimentConfig) -> DirectionSet:
    if cfg.generator == "uniform":
        return generate_uniform_directions(cfg.m, cfg.N, cfg.seed)
    if cfg.generator == "log-rational":
        return log_rational_directions(cfg.N)
    return load_wave(cfg.wave).dirs


def _resolve_wave(cfg: ExperimentConfig) -> MonochromaticWave:
    if cfg.generator == "file":
        return load_wave(cfg.wave)
    dirs = _resolve_dirs(cfg)
    # separate stream so coefficient phases never share bits with directions
    coeff_seed = int(child_rng(cfg.seed, 1).integers(2**63))
    return make_wave(dirs, seed=coeff_seed, mode=cfg.coeffs)


def _resolve_measure(cfg: ExperimentConfig):
    """The ensemble measure and the direction set behind it (None for the uniform measure)."""
    if cfg.K is None and cfg.generator == "uniform":
        return uniform_measure(cfg.m), None
    dirs = _resolve_dirs(cfg)
    if cfg.K is not None:
        return measure_from_partition(build_partition(dirs, cfg.K, cfg.delta)), dirs
    return empirical_measure(dirs), dirs


# ---------------------------------------------------------------------------
# serialization

META_COLUMNS = ("seed", "n_samples", "h", "W", "R", "N", "m")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_report_csv(path, rows, meta) -> None:
    """Fixed meta prefix + the first row's keys as payload columns; repr floats."""
    columns = list(rows[0])
    meta_vals = [_fmt(meta.get(k)) for k in META_COLUMNS]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(META_COLUMNS) + columns)
        for row in rows:
            w.writerow(meta_vals + [_fmt(row[c]) for c in columns])


def _meta(cfg: ExperimentConfig, n_samples, dirs: DirectionSet | None = None, **over):
    """Meta columns; N and m come from dirs.

    Without dirs (the rotation-invariant measure) m comes from cfg and N is
    empty: no direction set takes part in those draws.
    """
    meta = {
        "seed": cfg.seed,
        "n_samples": n_samples,
        "h": cfg.h,
        "W": cfg.W,
        "R": cfg.R,
        "N": dirs.count if dirs is not None else None,
        "m": dirs.dim if dirs is not None else cfg.m,
    }
    meta.update(over)
    return meta


def write_zero_svg(path, segments, xlim, ylim, circles=()) -> None:
    """Self-contained SVG: 1 unit = 10 px, zero set black, overlay circles red."""
    scale = 10.0
    width = (xlim[1] - xlim[0]) * scale
    height = (ylim[1] - ylim[0]) * scale

    def px(x, y):
        return (x - xlim[0]) * scale, (ylim[1] - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    d = []
    for seg in segments:
        x1, y1 = px(seg[0][0], seg[0][1])
        x2, y2 = px(seg[1][0], seg[1][1])
        d.append(f"M{x1:.2f} {y1:.2f}L{x2:.2f} {y2:.2f}")
    parts.append(f'<path d="{"".join(d)}" stroke="black" stroke-width="1" fill="none"/>')
    for cx, cy, rad in circles:
        pcx, pcy = px(cx, cy)
        parts.append(
            f'<circle cx="{pcx:.2f}" cy="{pcy:.2f}" r="{rad * scale:.2f}" '
            'stroke="red" stroke-width="1.5" fill="none"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def bessel_zero_table(count: int) -> list[float]:
    """First `count` positive zeros of J_0, bisected to bracket width < 1e-9.

    J_0 is scanned at steps of 0.05 up to count * pi, past the count-th zero
    (j_{0,n} < n pi); every sign change brackets one zero, and all brackets
    are bisected together.
    """
    if count > 20:
        raise ValueError("only the first 20 zeros are supported")
    step = 0.05
    x = step * np.arange(int(count * math.pi / step) + 2)
    f = bessel_j(0, x)
    i = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))[:count]
    lo, hi, flo = x[i], x[i + 1], f[i]
    while np.any(hi - lo > 1e-9):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(0, mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    return (0.5 * (lo + hi)).tolist()


def _report_rows(rep: stats.ComparisonReport, labels) -> list[dict]:
    rows = []
    for i, label in enumerate(labels):
        rows.append(
            {
                "label": label,
                "estimate": float(rep.estimate[i]),
                "predicted": float(rep.predicted[i]),
                "stderr": float(rep.stderr[i]),
                "tolerance": float(rep.tolerance[i]),
                "passed": bool(rep.within[i]),
            }
        )
    return rows


def _print_estimate(name: str, mean: float, stderr: float, by_reason: dict[str, int]) -> None:
    """One stdout line for an ensemble estimate: its value +- stderr and its exclusions."""
    excluded = sum(by_reason.values())
    reasons = f": {stats.format_reasons(by_reason)}" if excluded else ""
    print(f"{name} {mean!r} +- {stderr!r} ({excluded} excluded{reasons})")


def _emit(outdir: Path, name: str, rows, meta) -> Path:
    path = outdir / name
    write_report_csv(path, rows, meta)
    print(f"wrote {path}")
    return path


# ---------------------------------------------------------------------------
# command runners


def _run_gen_wave(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    path = outdir / "wave.txt"
    save_wave(wave, path)
    print(f"wrote {path}")


def _run_nodal_stats(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    m = wave.dirs.dim
    grid = sample_on_grid(wave, np.zeros(m), cfg.W, cfg.h)
    dec = label_domains(grid)
    geom = nodal_volume(grid)
    tree = build_nesting_tree(dec)
    topo = classify_topology(dec)

    comp_path = outdir / "components.csv"
    export_components_csv(dec, comp_path)
    print(f"wrote {comp_path}")

    meta = _meta(cfg, grid.values.size, wave.dirs)
    row = {
        "components": dec.total_components,
        "interior": dec.interior_count,
        "boundary": dec.boundary_count,
        "zero_measure": geom.total,
        "density": geom.density,
        "tree_code": tree.code,
        "classes": " ".join(f"{k}:{v}" for k, v in sorted(topo.items())),
    }
    _emit(outdir, "summary.csv", [row], meta)

    if m == 2:
        svg = outdir / "nodal.svg"
        lim = (-cfg.W, cfg.W)
        write_zero_svg(svg, geom.segments, lim, lim)
        print(f"wrote {svg}")


def _run_moments(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    m = wave.dirs.dim
    y_points = np.zeros((2, m))
    y_points[1, 0] = cfg.W / 2
    rep = stats.window_moment_report(
        wave, cfg.R, cfg.W, y_points, cfg.p_max, cfg.samples, cfg.seed
    )
    labels = [f"y{i} p{p}" for i in range(len(y_points)) for p in range(1, cfg.p_max + 1)]
    _emit(outdir, "moments.csv", _report_rows(rep, labels), _meta(cfg, cfg.samples, wave.dirs))
    print(f"all within tolerance: {rep.passed}")


def _run_bk_moments(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    part = build_partition(wave.dirs, cfg.K, cfg.delta)
    # one cell per antipodal pair: the twin's packet is the conjugate, so
    # cross moments against it would just repeat the single-cell ones
    sel = np.asarray(part.selected_positive)
    if len(sel) < 2:
        raise ValueError("need at least two selected cells for cross moments")
    order = np.lexsort((sel, -part.masses[sel]))
    chosen = [int(sel[i]) for i in order[: min(3, len(sel))]]

    moments = []
    labels = []
    for k in chosen:
        moments.append([(k, 1, 1)])
        labels.append(f"{k}:1:1")
        moments.append([(k, 2, 0)])
        labels.append(f"{k}:2:0")
    for a, b in zip(chosen, chosen[1:]):
        moments.append([(a, 1, 0), (b, 0, 1)])
        labels.append(f"{a}:1:0|{b}:0:1")
    rep = stats.bk_moment_report(wave, part, cfg.R, moments, cfg.samples, cfg.seed)
    _emit(outdir, "bk_moments.csv", _report_rows(rep, labels), _meta(cfg, cfg.samples, wave.dirs))
    print(f"all within tolerance: {rep.passed}")


def _run_charfn(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    rep = characteristic_function(wave, cfg.R, cfg.t_max, 41, cfg.samples, cfg.seed)
    rows = [
        {
            "t": float(rep.t[i]),
            "re_psi": float(rep.empirical[i].real),
            "im_psi": float(rep.empirical[i].imag),
            "predicted": float(rep.predicted[i]),
            "stderr": float(rep.stderr[i]),
        }
        for i in range(len(rep.t))
    ]
    _emit(outdir, "charfn.csv", rows, _meta(cfg, cfg.samples, wave.dirs))
    print(f"sup error over the t grid: {rep.sup_error!r}")


def _run_doubling(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    st = doubling_tail(wave, cfg.R, cfg.W, cfg.samples, cfg.seed)
    q_grid = np.arange(1.0, 4.0 + 1e-9, 0.05)
    tails = st.tail(q_grid)
    rows = [{"Q": float(q), "tail": float(t)} for q, t in zip(q_grid, tails)]
    _emit(outdir, "doubling.csv", rows, _meta(cfg, cfg.samples, wave.dirs))


def _run_smallvalues(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    rep = small_value_fraction(wave, cfg.R, cfg.beta, cfg.samples, cfg.seed)
    row = {
        "beta": rep.beta,
        "fraction": rep.fraction,
        "stderr": rep.stderr,
        "gaussian_limit": rep.gaussian_limit,
    }
    _emit(outdir, "smallvalues.csv", [row], _meta(cfg, cfg.samples, wave.dirs))


def _run_compare(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    m = wave.dirs.dim
    measure = empirical_measure(wave.dirs)
    meta = _meta(cfg, cfg.samples, wave.dirs)

    y_points = np.zeros((2, m))
    y_points[1, 0] = cfg.W / 2
    push = stats.pushforward_distance(wave, cfg.R, measure, y_points, cfg.samples, cfg.seed)
    labels = [f"ks y{i}" for i in range(len(y_points))] + ["energy"]
    _emit(outdir, "pushforward.csv", _report_rows(push, labels), meta)
    print(f"gaussian indistinguishable: {bool(push.within[-1])}")

    lags = np.zeros((3, m))
    lags[1, 0] = cfg.W / 2
    lags[2, 0] = cfg.W
    cov = stats.covariance_compare(wave, cfg.R, cfg.W, lags, cfg.samples, cfg.seed)
    lag_labels = [repr(float(np.linalg.norm(tau))) for tau in lags]
    _emit(outdir, "covariance.csv", _report_rows(cov, lag_labels), meta)


def _run_kacrice(cfg: ExperimentConfig, outdir: Path) -> None:
    measure, dirs = _resolve_measure(cfg)
    density, err = stats.kac_rice_density(measure, n_mc=cfg.samples, seed=cfg.seed)
    row = {"kind": measure.kind, "density": density, "stderr": err}
    _emit(outdir, "kacrice.csv", [row], _meta(cfg, cfg.samples, dirs))
    print(f"expected zero-set volume per unit volume: {density!r}")


def _run_ns_estimate(cfg: ExperimentConfig, outdir: Path) -> None:
    measure, dirs = _resolve_measure(cfg)
    est = stats.ns_constant_estimate(measure, cfg.W, cfg.trials, cfg.seed, h=cfg.h)
    labelled = [("density", "", (est.mean, est.stderr))]
    labelled += [("class", tag, v) for tag, v in sorted(est.class_density.items())]
    labelled += [("tree", code, v) for code, v in sorted(est.tree_density.items())]
    rows = [{"kind": kind, "label": label, "mean": mu, "stderr": se,
             "excluded": est.excluded, "trials": est.trials}
            for kind, label, (mu, se) in labelled]
    _emit(outdir, "ns.csv", rows, _meta(cfg, cfg.trials, dirs))
    _print_estimate("count density", est.mean, est.stderr, est.excluded_by_reason)


def _run_sandwich(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    grid = sample_on_grid(wave, np.zeros(wave.dirs.dim), cfg.R + cfg.r, cfg.h)
    rep = stats.volume_sandwich_check(grid, cfg.R, cfg.r)
    row = {
        "lower": rep.meta["lower"],
        "middle": rep.meta["middle"],
        "upper": rep.meta["upper"],
        "tolerance": float(rep.tolerance[0]),
        "passed": rep.passed,
    }
    _emit(outdir, "sandwich.csv", [row], _meta(cfg, rep.n_samples, wave.dirs))
    print(f"sandwich holds: {rep.passed}")


def _run_semilocal(cfg: ExperimentConfig, outdir: Path) -> None:
    wave = _resolve_wave(cfg)
    rep = stats.semilocal_count_check(wave, cfg.R, cfg.W, h=cfg.h)
    row = {
        "local_mean": float(rep.estimate[0]),
        "global_density": float(rep.predicted[0]),
        "gap": rep.meta["gap"],
        "correction": rep.meta["correction"],
        "allowance": rep.meta["allowance"],
        "passed": rep.passed,
    }
    _emit(outdir, "semilocal.csv", [row], _meta(cfg, rep.n_samples, wave.dirs))
    print(f"gap bounded: {rep.passed}")


def _run_discrepancy(cfg: ExperimentConfig, outdir: Path) -> None:
    measure, dirs = _resolve_measure(cfg)
    rep = stats.discrepancy_estimate(measure, cfg.W, cfg.trials, cfg.seed, h=cfg.h)
    row = {
        "mean_abs_deviation": rep.mean_abs_deviation,
        "stderr": rep.stderr,
        "mean_density": rep.mean_density,
        "trials": rep.trials,
    }
    _emit(outdir, "discrepancy.csv", [row], _meta(cfg, cfg.trials, dirs))
    _print_estimate("mean absolute deviation", rep.mean_abs_deviation, rep.stderr,
                    rep.excluded_by_reason)


def _run_fig1(cfg: ExperimentConfig, outdir: Path) -> None:
    """Zero contours of g(x) = (1/N) sum_n cos(w <r_n, x>) over [-20, 20]^2.

    The library convention puts the wavelength at 1 (frequencies on the unit
    sphere times 2 pi in the phase); the wavenumber key rescales coordinates
    so the classical w=1 picture comes out directly.
    """
    dirs = _resolve_dirs(cfg)
    if dirs.dim != 2:
        raise ValueError("fig1 is a planar picture; needs m=2")
    w = cfg.wavenumber
    if w <= 0:
        raise ValueError("wavenumber must be positive")
    N = dirs.count
    freqs = dirs.vectors * (w / (2 * math.pi))
    coeffs = np.full(N, 1.0 / N, dtype=complex)

    half = 20.0
    n = int(round(2 * half / cfg.h)) + 1
    origin = np.array([-half, -half])
    g_field = PlaneWaveSum(freqs, coeffs)
    vals = g_field.on_grid(origin, (n, n), cfg.h)
    grid = ScalarGrid(origin=origin, spacing=cfg.h, shape=(n, n), values=vals)
    geom = nodal_volume(grid)

    radii = [z / w for z in bessel_zero_table(20) if z / w <= half]
    svg = outdir / f"fig1_N{N}.svg"
    write_zero_svg(svg, geom.segments, (-half, half), (-half, half),
                   circles=[(0.0, 0.0, rad) for rad in radii])
    print(f"wrote {svg}")

    # radial profile along e1 against the large-N limit J_0(w r)
    r = np.arange(0.0, 10.0 + 1e-9, 0.05)
    g = g_field.value(np.column_stack([r, np.zeros_like(r)]))
    limit = bessel_j(0, w * r)
    rows = [
        {"r": float(r[i]), "g": float(g[i]), "limit": float(limit[i])}
        for i in range(len(r))
    ]
    meta = _meta(cfg, n * n, dirs, R=half)
    _emit(outdir, f"fig1_profile_N{N}.csv", rows, meta)


# each command's runner and the config keys it requires, checked where the
# config is parsed; generator = file also requires wave
_RUNNERS = {
    "gen-wave": (_run_gen_wave, ()),
    "nodal-stats": (_run_nodal_stats, ("W",)),
    "moments": (_run_moments, ("R", "W")),
    "bk-moments": (_run_bk_moments, ("R", "K")),
    "charfn": (_run_charfn, ("R",)),
    # each centre probes the whole outer ball: the samples default would run for hours
    "doubling": (_run_doubling, ("samples", "R", "W")),
    "smallvalues": (_run_smallvalues, ("R",)),
    "compare": (_run_compare, ("R", "W")),
    "kacrice": (_run_kacrice, ()),
    "ns-estimate": (_run_ns_estimate, ("W",)),
    "sandwich": (_run_sandwich, ("R", "r")),
    "semilocal": (_run_semilocal, ("R", "W")),
    "discrepancy": (_run_discrepancy, ("W",)),
    "fig1": (_run_fig1, ()),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="monowave",
        description="Run one wave/nodal-geometry experiment from a key=value config.",
    )
    ap.add_argument("--config", required=True, help="path to a key=value config file")
    ap.add_argument("--out", default=".", help="output directory")
    # every run's trials run in order on one thread; the flag still parses
    # only because perfbench/child.py::run_cli passes it, and the benchmark
    # change of ROADMAP item 1 deletes both the flag and that argument
    ap.add_argument("--threads", type=int, default=1,
                    help="ignored: trials run on one thread")
    ap.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[cfg.command][0](cfg, outdir)
    except DegenerateSampleError as exc:
        print(f"degenerate sample: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
