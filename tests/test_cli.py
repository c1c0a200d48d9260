import csv
import io
import math
import re

import numpy as np
import pytest

from monowave import cli, gaussian, nodal, stats
from monowave.cli import (
    bessel_zero_table,
    config_from_mapping,
    load_wave,
    main,
    parse_config_text,
    save_wave,
)
from monowave.directions import generate_uniform_directions
from monowave.field import make_wave
from monowave.gaussian import check_nondegenerate
from monowave.nodal import DegenerateSampleError

J0_ZEROS = [
    2.404825557695773,
    5.520078110286311,
    8.653727912911013,
    11.791534439014281,
    14.930917708487787,
    18.071063967910924,
]


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_text():
    raw = parse_config_text("# comment\n\ncommand = gen-wave\nN = 8  # trailing\n")
    assert raw == {"command": "gen-wave", "N": "8"}
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("command = x\njust words\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("N = 1\nN = 2\n")


def test_config_from_mapping_guards():
    with pytest.raises(ValueError, match="bogus_key"):
        config_from_mapping({"command": "moments", "bogus_key": "7"})
    with pytest.raises(ValueError, match="command"):
        config_from_mapping({"N": "8"})
    with pytest.raises(ValueError, match="integer"):
        config_from_mapping({"command": "moments", "N": "2.5"})
    with pytest.raises(ValueError, match="expects a number"):
        config_from_mapping({"command": "moments", "W": "x"})
    with pytest.raises(ValueError, match="frobnicate"):
        config_from_mapping({"command": "frobnicate"})
    with pytest.raises(ValueError, match="generator"):
        config_from_mapping({"command": "moments", "generator": "magic"})
    with pytest.raises(ValueError, match="coeffs"):
        config_from_mapping({"command": "moments", "coeffs": "zeros"})


# the config keys each command requires; generator = file also requires wave
REQUIRED = {
    "gen-wave": (), "nodal-stats": ("W",), "moments": ("R", "W"), "bk-moments": ("R", "K"),
    "charfn": ("R",), "doubling": ("samples", "R", "W"), "smallvalues": ("R",),
    "compare": ("R", "W"), "kacrice": (), "ns-estimate": ("W",), "sandwich": ("R", "r"),
    "semilocal": ("R", "W"), "discrepancy": ("W",), "fig1": (),
}
KEY_VALUES = {"W": "4", "R": "20", "K": "4", "r": "0.5", "samples": "5"}
MISSING = [(c, k) for c, keys in REQUIRED.items() for k in keys]


def test_exit_codes(tmp_path, monkeypatch):
    bad = write_cfg(tmp_path, "command = moments\nbogus_key = 7\n")
    assert main(["--config", bad]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    # missing required key names the key
    nom = write_cfg(tmp_path, "command = nodal-stats\n", "nom.cfg")
    assert main(["--config", nom, "--out", str(tmp_path / "o1")]) == 2
    # argparse errors come back as exit 2, not SystemExit
    assert main(["--config"]) == 2

    # the doubling probe box is 2D or 3D: m = 4 (a 161^4 box, gigabytes) is
    # refused before lattice_ball builds it
    def no_box(*args):
        raise AssertionError("the m = 4 probe box was built")

    monkeypatch.setattr("monowave.growth.lattice_ball", no_box)
    m4 = write_cfg(tmp_path, "command = doubling\nm = 4\nR = 20\nW = 1\nsamples = 2\n", "m4.cfg")
    assert main(["--config", m4, "--out", str(tmp_path / "o4")]) == 2

    def boom(cfg, outdir):
        raise DegenerateSampleError("planted", "not_a_tree")

    monkeypatch.setitem(cli._RUNNERS, "gen-wave", (boom, "wave", (), ()))
    g = write_cfg(tmp_path, "command = gen-wave\nN = 4\n", "g.cfg")
    assert main(["--config", g, "--out", str(tmp_path / "o2")]) == 3


@pytest.mark.parametrize(
    "body, err",
    [
        ("command = smallvalues\nR = 20\nsamples = 0\n", "samples"),
        ("command = doubling\nR = 20\nW = 1\nsamples = 0\n", "samples"),
        ("command = doubling\nR = 20\nW = 1\n", "samples"),
        ("command = charfn\nR = 20\nsamples = 0\n", "samples"),
        ("command = kacrice\ngenerator = log-rational\nN = 16\nsamples = 0\n", "samples"),
        ("command = charfn\nR = 20\nsamples = 1\n", "samples"),
        ("command = nodal-stats\nW = 2\nh = 0\n", "spacing"),
        ("command = nodal-stats\nW = 2\nh = -0.05\n", "spacing"),
        ("command = fig1\nh = 0\n", "spacing"),
        # moments of order 1..p_max: p_max = 0 asks for none
        ("command = moments\nR = 20\nW = 1\np_max = 0\nsamples = 50\n", "p_max"),
        # the spatial sample is drawn from B(R): R must be positive
        ("command = moments\nR = 0\nW = 1\nsamples = 50\n", "R must be positive"),
        ("command = smallvalues\nR = -20\nsamples = 50\n", "R must be positive"),
        # inf and nan parse as floats: every float key refuses them before a
        # run can overflow or write NaN rows
        ("command = doubling\nR = inf\nW = 1\nsamples = 5\n", "key 'R' expects a finite number, got 'inf'"),
        ("command = nodal-stats\nW = inf\n", "key 'W' expects a finite number, got 'inf'"),
        ("command = semilocal\nR = inf\nW = 4\n", "key 'R' expects a finite number, got 'inf'"),
        ("command = sandwich\nR = inf\nr = 0.5\n", "key 'R' expects a finite number, got 'inf'"),
        ("command = fig1\nwavenumber = inf\n", "key 'wavenumber' expects a finite number, got 'inf'"),
        ("command = moments\nR = inf\nW = 1\nsamples = 50\n", "key 'R' expects a finite number, got 'inf'"),
        ("command = moments\nR = -Infinity\nW = 1\nsamples = 50\n",
         "key 'R' expects a finite number, got '-Infinity'"),
        ("command = smallvalues\nR = 20\nbeta = nan\nsamples = 50\n",
         "key 'beta' expects a finite number, got 'nan'"),
        # the W >= 4 refusal is ns-estimate's own: discrepancy reads the same
        # estimate on B(2) (test_report_csv_headers[discrepancy])
        ("command = ns-estimate\nm = 2\nW = 3\nh = 0.2\ntrials = 50\n", "need W >= 4"),
        # value ranges that the library checks, after the config is read
        ("command = ns-estimate\nW = 4\nh = 0.2\ntrials = 20\n", "need at least 50 trials"),
        ("command = sandwich\nN = 8\nR = 1\nr = 1\nh = 0.1\n", "need 0 < r < R"),
    ],
    ids=["smallvalues-0", "doubling-0", "doubling-no-samples", "charfn-0", "kacrice-atomic-0",
         "charfn-1", "nodal-stats-h0", "nodal-stats-h-negative", "fig1-h0", "moments-p_max-0",
         "moments-R-0", "smallvalues-R-negative", "doubling-R-inf", "nodal-stats-W-inf",
         "semilocal-R-inf", "sandwich-R-inf", "fig1-wavenumber-inf", "moments-R-inf",
         "moments-R-minus-inf", "smallvalues-beta-nan", "ns-estimate-W-3",
         "ns-estimate-trials-20", "sandwich-r-R"],
)
def test_out_of_range_samples_and_spacing_exit_2(tmp_path, capsys, body, err):
    # every Monte Carlo stderr uses ddof=1, so fewer than 2 samples has none;
    # a refusal raised in the library (p_max, R, trials, r < R) comes before
    # the first artifact, so it leaves no directory either
    cfgp = write_cfg(tmp_path, body)
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert err in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_command_table_requires_the_runners_keys():
    assert {c: keys for c, (_, _, keys, _) in cli._RUNNERS.items()} == REQUIRED
    for command, keys in REQUIRED.items():
        cfg = config_from_mapping({"command": command, **{k: KEY_VALUES[k] for k in keys}})
        assert cfg.command == command


@pytest.mark.parametrize("command, key", MISSING, ids=[f"{c}-{k}" for c, k in MISSING])
def test_config_lacking_a_required_key_is_refused_where_it_is_parsed(tmp_path, capsys, command, key):
    # load_config refuses it, so the driver makes no output directory and no wave
    cfgp = write_cfg(tmp_path, f"command = {command}\n" + "".join(
        f"{k} = {KEY_VALUES[k]}\n" for k in REQUIRED[command] if k != key))
    with pytest.raises(ValueError, match=f"^command '{command}' requires config key '{key}'$"):
        cli.load_config(cfgp)
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert f"requires config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(REQUIRED))
def test_log_rational_directions_need_m_2_where_parsed(tmp_path, command):
    keys = "".join(f"{k} = {KEY_VALUES[k]}\n" for k in REQUIRED[command])
    cfgp = write_cfg(tmp_path, f"command = {command}\ngenerator = log-rational\nm = 3\n{keys}")
    with pytest.raises(ValueError, match="log-rational directions exist only for m=2"):
        cli.load_config(cfgp)
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "body, err",
    [
        ("command = moments\nR = 20\nW = 1\nsamples = 50\nK = 4\n",
         "command 'moments' with generator = uniform does not read config key 'K'"),
        ("command = moments\nR = 20\nW = 1\nK = 4\ntrials = 3\nbeta = 0.5\n",
         "command 'moments' with generator = uniform does not read config keys 'K', 'trials', 'beta'"),
        ("command = moments\nR = 20\nW = 1\nh = 0.1\n", "does not read config key 'h'"),
        ("command = nodal-stats\nW = 2\nR = 4\n", "does not read config key 'R'"),
        ("command = charfn\nR = 20\nwave = exp.cfg\n",
         "command 'charfn' with generator = uniform does not read config key 'wave'"),
        ("command = kacrice\ndelta = 0.01\n", "does not read config key 'delta'"),
        ("command = fig1\ncoeffs = all-ones\n", "command 'fig1' with generator = uniform "
         "does not read config key 'coeffs'"),
        ("command = kacrice\ngenerator = file\nwave = exp.cfg\nm = 2\nN = 8\n",
         "command 'kacrice' with generator = file does not read config keys 'm', 'N'"),
    ],
    ids=["moments-K", "moments-K-trials-beta", "moments-h", "nodal-stats-R", "uniform-wave",
         "delta-without-K", "fig1-coeffs", "file-m-N"],
)
def test_a_key_the_command_does_not_read_is_refused(tmp_path, capsys, body, err):
    # the command table is the schema: a key outside it is refused where the
    # config is read, so no run ignores it and no directory is made
    cfgp = write_cfg(tmp_path, body)
    with pytest.raises(ValueError, match=re.escape(err)):
        cli.load_config(cfgp)
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert err in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def recording(cfg, reads):
    """A copy of cfg that adds the name of each config field read from it to reads."""
    class Recording(cli.ExperimentConfig):
        def __getattribute__(self, name):
            if name in cli._KEY_TYPES:
                reads.add(name)
            return super().__getattribute__(name)

    return Recording(**vars(cfg))


# small values for each command's own keys; doubling and semilocal need
# R >= 10 W, and the ensemble runs keep their 50 trials at a coarse h
ORACLE_KEYS = {"W": "2", "R": "3", "K": "4", "r": "0.5", "samples": "20"}
ORACLE_OVERRIDES = {
    "doubling": {"R": "10", "W": "1", "samples": "2"},
    "semilocal": {"R": "10", "W": "1"},
    "ns-estimate": {"W": "4", "h": "0.2"},
    "discrepancy": {"h": "0.2"},
}


def test_each_command_accepts_exactly_the_keys_its_runner_reads(tmp_path, monkeypatch):
    # each runner runs once per generator it can take, the measures with and
    # without K, on a config that records what the runner reads; _meta's reads
    # (h, W and R for every report) are not counted. Every key read is one
    # the table accepts, and every key the table accepts is read by some run
    wavep = tmp_path / "wave.txt"
    save_wave(make_wave(generate_uniform_directions(2, 8, 3), seed=4), wavep)
    inputs = {"uniform": {}, "log-rational": {"N": "16"}, "file": {"wave": str(wavep)}}
    meta = cli._meta
    monkeypatch.setattr(cli, "_meta", lambda cfg, *args, **kw: meta(
        cli.ExperimentConfig(**vars(cfg)), *args, **kw))
    for command, (run, source, required, optional) in cli._RUNNERS.items():
        own = {key: ORACLE_KEYS[key] for key in required + optional if key in ORACLE_KEYS}
        own.update(ORACLE_OVERRIDES.get(command, {}))
        accepted_by_some, read_by_some = set(), set()
        for generator, keys in inputs.items():
            for with_k in (False, True) if source == "measure" else (False,):
                raw = {"command": command, "generator": generator, **keys, **own}
                raw.update({"K": "4"} if with_k else {})
                reads = set()
                run(recording(config_from_mapping(raw), reads), tmp_path / "out")
                accepted = cli._accepted_keys(command, generator, with_k)
                assert reads <= accepted, (command, generator, with_k, reads - accepted)
                # and within one run: command and seed belong to every command,
                # and log-rational's m is only checked to be 2
                unread = accepted - reads - {"command", "seed"}
                allowed = {"m"} if generator == "log-rational" else set()
                assert unread <= allowed, (command, generator, with_k, unread)
                accepted_by_some |= accepted
                read_by_some |= reads
        assert accepted_by_some - read_by_some == {"command"}, command


def test_out_is_not_a_config_key(tmp_path):
    # --out alone names the output directory
    with pytest.raises(ValueError, match="unknown config key 'out'"):
        config_from_mapping({"command": "gen-wave", "out": str(tmp_path / "x")})
    cfgp = write_cfg(tmp_path, f"command = gen-wave\nout = {tmp_path / 'x'}\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "x").exists() and not (tmp_path / "o").exists()


def test_gen_wave_round_trip(tmp_path):
    cfgp = write_cfg(tmp_path, "command = gen-wave\nm = 2\nN = 8\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["--config", cfgp, "--out", str(out)]) == 0
    wave = load_wave(out / "wave.txt")
    assert wave.dirs.count == 8 and wave.dirs.dim == 2
    # serialization is exact: a second save emits identical bytes
    p2 = tmp_path / "again.txt"
    save_wave(wave, p2)
    assert p2.read_bytes() == (out / "wave.txt").read_bytes()


@pytest.mark.parametrize("command", list(REQUIRED))
def test_file_generator_without_wave_key(tmp_path, capsys, command):
    keys = "".join(f"{k} = {KEY_VALUES[k]}\n" for k in REQUIRED[command])
    cfgp = write_cfg(tmp_path, f"command = {command}\ngenerator = file\n{keys}")
    with pytest.raises(ValueError, match=f"^command '{command}' requires config key 'wave'$"):
        cli.load_config(cfgp)
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "requires config key 'wave'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["missing.txt", ""], ids=["missing-file", "empty"])
def test_wave_key_naming_no_file_is_refused_where_it_is_parsed(tmp_path, capsys, monkeypatch,
                                                              value):
    # the path is read relative to the working directory, and an empty value
    # names that directory itself: neither is a wave file
    monkeypatch.chdir(tmp_path)
    cfgp = write_cfg(tmp_path, f"command = kacrice\ngenerator = file\nwave = {value}\n")
    with pytest.raises(ValueError, match="^config key 'wave' names no file"):
        cli.load_config(cfgp)
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == 2
    assert "config key 'wave' names no file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, code, err",
    [
        ("kacrice", "", 0, ""),
        ("discrepancy", "W = 2\nh = 0.1\ntrials = 50\n", 0, ""),
        ("fig1", "h = 0.1\n", 2, "planar"),
        ("kacrice", "m = 3\n", 2, "'kacrice' with generator = file does not read config key 'm'"),
        ("discrepancy", "W = 2\nh = 0.1\ntrials = 50\nN = 16\n", 2,
         "'discrepancy' with generator = file does not read config key 'N'"),
    ],
    ids=["kacrice", "discrepancy", "fig1", "kacrice-sets-m", "discrepancy-sets-N"],
)
def test_wave_file_is_the_one_source_of_m_and_n(tmp_path, capsys, command, extra, code, err):
    # generator = file takes the wave key in place of m and N, and fig1 on
    # the m = 3 file is refused where the config is read
    gen = write_cfg(tmp_path, "command = gen-wave\nm = 3\nN = 16\nseed = 3\n", "gen.cfg")
    assert main(["--config", gen, "--out", str(tmp_path)]) == 0
    cfgp = write_cfg(
        tmp_path, f"command = {command}\ngenerator = file\nwave = {tmp_path / 'wave.txt'}\n{extra}")
    out = tmp_path / "o"
    assert main(["--config", cfgp, "--out", str(out)]) == code
    assert err in capsys.readouterr().err
    if code == 0:
        rows = list(csv.DictReader(open(out / f"{command}.csv")))
        assert (rows[0]["m"], rows[0]["N"]) == ("3", "16")
    else:
        assert not out.exists()


@pytest.mark.parametrize("command,report", [("kacrice", "kacrice.csv"), ("ns-estimate", "ns.csv")])
def test_rotation_invariant_measure_writes_no_n(tmp_path, capsys, command, report):
    # generator = uniform without K draws 1024 plane waves per field from the
    # rotation-invariant measure: no direction set takes part, so the config
    # takes no N and the report leaves N empty
    body = f"command = {command}\ngenerator = uniform\nm = 2\n"
    if command == "ns-estimate":
        body += "W = 4\nh = 0.1\ntrials = 50\n"
    out = tmp_path / "o"
    assert main(["--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / report)))
    assert rows and all((r["m"], r["N"]) == ("2", "") for r in rows)
    withn = tmp_path / "withn"
    assert main(["--config", write_cfg(tmp_path, body + "N = 64\n", "n.cfg"),
                 "--out", str(withn)]) == 2
    assert "generator = uniform does not read config key 'N'" in capsys.readouterr().err
    assert not withn.exists()


def test_seed_flag_overrides_config(tmp_path):
    cfgp = write_cfg(tmp_path, "command = gen-wave\nN = 8\nseed = 3\n")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["--config", cfgp, "--out", str(a)]) == 0
    assert main(["--config", cfgp, "--out", str(b), "--seed", "4"]) == 0
    assert main(["--config", cfgp, "--out", str(c), "--seed", "3"]) == 0
    assert (a / "wave.txt").read_bytes() != (b / "wave.txt").read_bytes()
    assert (a / "wave.txt").read_bytes() == (c / "wave.txt").read_bytes()


def test_load_wave_rejects_malformed(tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("2 4\n1 0\n")
    with pytest.raises((ValueError, OSError)):
        load_wave(p)


@pytest.mark.parametrize("header", ["", "2\n"], ids=["empty", "one-token"])
def test_malformed_wave_header_exits_2(tmp_path, capsys, header):
    wavep = tmp_path / "broken.txt"
    wavep.write_text(header)
    with pytest.raises(ValueError, match="header"):
        load_wave(wavep)
    cfgp = write_cfg(tmp_path, f"command = nodal-stats\ngenerator = file\nwave = {wavep}\nW = 4\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "header must be 'm N'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body, err", [
    ("2 3\n1 0\n0 1\n0.6 0.8\nnan 0\n1 0\n0 1\n", "unit modulus"),
    ("2 3\n1 0\n0 1\n0.6 0.8\n1 0\ninf 0\n0 1\n", "unit modulus"),
    ("2 1\nnan 0\n1 0\n", "direction norms"),
    ("2 3\nnan 0\n0 1\n0.6 0.8\n1 0\n1 0\n1 0\n", "direction norms"),
    ("2 3\n1 0\n-inf 1\n0.6 0.8\n1 0\n1 0\n1 0\n", "direction norms"),
], ids=["nan-coeff", "inf-coeff", "nan-one-direction", "nan-direction", "inf-direction"])
def test_non_finite_wave_file_exits_2(tmp_path, capsys, body, err):
    # NaN compares False, so each unit check asks that every deviation be
    # within its tolerance rather than that none exceed it
    wavep = tmp_path / "wave.txt"
    wavep.write_text(body)
    cfgp = write_cfg(tmp_path, f"command = nodal-stats\ngenerator = file\nwave = {wavep}\nW = 4\nh = 0.1\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert err in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_nodal_stats_on_cosine_fixture(tmp_path, cosine_wave):
    wavep = tmp_path / "cos.txt"
    save_wave(cosine_wave, wavep)
    cfgp = write_cfg(
        tmp_path,
        f"command = nodal-stats\ngenerator = file\nwave = {wavep}\nW = 4\nh = 0.05\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfgp, "--out", str(out)]) == 0

    rows = list(csv.DictReader(open(out / "summary.csv")))
    assert len(rows) == 1
    assert rows[0]["components"] == "17"
    assert rows[0]["interior"] == "0"
    assert rows[0]["N"] == "1" and rows[0]["m"] == "2"

    comp = list(csv.DictReader(open(out / "components.csv")))
    assert len(comp) == 17

    svg = (out / "nodal.svg").read_text()
    assert svg.startswith("<svg")
    assert "path" in svg and svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize("m, N, W, h", [(2, 8, 4, 0.05), (3, 16, 2, 0.1)])
def test_nodal_stats_extracts_the_zero_set_once(tmp_path, monkeypatch, m, N, W, h):
    # the measures, the 3D classes, the component export and the svg all read
    # the zero set that the grid caches
    calls = []
    extract = nodal._extract_zero_set

    def counted(*args):
        calls.append(args)
        return extract(*args)

    monkeypatch.setattr(nodal, "_extract_zero_set", counted)
    gen = write_cfg(tmp_path, f"command = gen-wave\nm = {m}\nN = {N}\nseed = 3\n", "gen.cfg")
    assert main(["--config", gen, "--out", str(tmp_path)]) == 0
    cfgp = write_cfg(tmp_path, "command = nodal-stats\ngenerator = file\n"
                     f"wave = {tmp_path / 'wave.txt'}\nW = {W}\nh = {h}\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "out" / "nodal.svg").exists() == (m == 2)


def test_sandwich_3d_frozen_row(tmp_path):
    # the m = 3 branch of the ball clipping: triangle areas split over 16
    # subtriangles each where a ball's sphere cuts them
    gen = write_cfg(tmp_path, "command = gen-wave\nm = 3\nN = 16\nseed = 3\n", "gen.cfg")
    assert main(["--config", gen, "--out", str(tmp_path)]) == 0
    cfgp = write_cfg(tmp_path, "command = sandwich\ngenerator = file\n"
                     f"wave = {tmp_path / 'wave.txt'}\nR = 1\nr = 0.5\nh = 0.1\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sandwich.csv").read_text().splitlines()
    assert rows[1] == ("0,2109,0.1,,1.0,16,3,1.247025753452962,9.618510747313845,"
                       "28.393633377639144,0.5678726675527829,1")


def test_nodal_stats_3d_frozen_row(tmp_path):
    # the 3D zero set at the mesh-3d draw size (a 101^3 ball grid): its area
    # and density, and the nesting tree read through it
    cfgp = write_cfg(tmp_path, "command = nodal-stats\nm = 3\ngenerator = uniform\n"
                     "W = 3\nh = 0.06\nseed = 9\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert rows[1] == ("9,1030301,0.06,3.0,,64,3,31,0,31,250.67087381243397,2.320692429664517,"
                       "(" + "()" * 31 + "),")


def test_report_csv_round_trips(tmp_path, cosine_wave):
    wavep = tmp_path / "cos.txt"
    save_wave(cosine_wave, wavep)
    cfgp = write_cfg(
        tmp_path,
        f"command = nodal-stats\ngenerator = file\nwave = {wavep}\nW = 4\nh = 0.05\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfgp, "--out", str(out)]) == 0
    for name in ("summary.csv", "components.csv"):
        original = (out / name).read_bytes().decode()  # keep the \r\n endings
        rows = list(csv.reader(io.StringIO(original)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows(rows)
        assert buf.getvalue() == original


META_HEADER = "seed,n_samples,h,W,R,N,m,"
REPORT_HEADER = META_HEADER + "label,estimate,predicted,stderr,tolerance,passed"


@pytest.mark.parametrize(
    "body, report, header",
    [
        ("command = nodal-stats\nN = 8\nW = 2\nh = 0.1\n", "summary.csv",
         META_HEADER + "components,interior,boundary,zero_measure,density,tree_code,classes"),
        ("command = moments\nN = 8\nR = 20\nW = 1\nsamples = 40\n", "moments.csv",
         REPORT_HEADER),
        ("command = bk-moments\nN = 16\nR = 20\nK = 4\nsamples = 40\n", "bk_moments.csv",
         REPORT_HEADER),
        ("command = charfn\nN = 8\nR = 20\nsamples = 40\n", "charfn.csv",
         META_HEADER + "t,re_psi,im_psi,predicted,stderr"),
        ("command = doubling\nN = 8\nR = 10\nW = 1\nsamples = 2\n", "doubling.csv",
         META_HEADER + "Q,tail"),
        ("command = smallvalues\nN = 8\nR = 20\nsamples = 40\n", "smallvalues.csv",
         META_HEADER + "beta,fraction,stderr,gaussian_limit"),
        ("command = compare\nN = 8\nR = 20\nW = 1\nsamples = 40\n", "pushforward.csv",
         REPORT_HEADER),
        ("command = compare\nN = 8\nR = 20\nW = 1\nsamples = 40\n", "covariance.csv",
         REPORT_HEADER),
        ("command = kacrice\ngenerator = log-rational\nN = 16\nsamples = 100\n", "kacrice.csv",
         META_HEADER + "kind,density,stderr"),
        ("command = ns-estimate\nW = 4\nh = 0.1\n", "ns.csv",
         META_HEADER + "kind,label,mean,stderr,excluded,trials"),
        ("command = sandwich\nN = 8\nR = 3\nr = 1\nh = 0.1\n", "sandwich.csv",
         META_HEADER + "lower,middle,upper,tolerance,passed"),
        ("command = semilocal\nN = 8\nR = 10\nW = 1\nh = 0.1\n", "semilocal.csv",
         META_HEADER + "local_mean,global_density,gap,correction,allowance,passed"),
        ("command = discrepancy\ngenerator = log-rational\nN = 16\nW = 2\nh = 0.2\n",
         "discrepancy.csv", META_HEADER + "mean_abs_deviation,stderr,mean_density,trials"),
        ("command = fig1\nN = 9\nh = 0.5\n", "fig1_profile_N9.csv", META_HEADER + "r,g,limit"),
    ],
    ids=["summary", "moments", "bk_moments", "charfn", "doubling", "smallvalues",
         "pushforward", "covariance", "kacrice", "ns", "sandwich", "semilocal",
         "discrepancy", "fig1_profile"],
)
def test_report_csv_headers(tmp_path, body, report, header):
    # the payload columns are the rows' keys: this freezes every report's header
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    assert (out / report).read_bytes().split(b"\r\n", 1)[0].decode() == header


def test_compare_draw_seeds_avoid_the_wave_phases(tmp_path, monkeypatch):
    # pushforward's Gaussian cloud takes its draw seeds from a stream of its own:
    # none may equal the seed of the wave's coefficient phases, none may repeat.
    # The wave's measure is atomic, so the cloud is gaussian.atomic_cloud, which
    # fills each draw's [g | h] row through gaussian._normal_row, the one owner
    # of the per-seed draw (sample_atomic reads the same line)
    coeff_seeds, draw_seeds = [], []
    make_wave, normal_row = cli.make_wave, gaussian._normal_row

    def spy_make_wave(dirs, seed, mode):
        coeff_seeds.append(seed)
        return make_wave(dirs, seed=seed, mode=mode)

    def spy_normal_row(seed, row):
        draw_seeds.append(seed)
        return normal_row(seed, row)

    monkeypatch.setattr(cli, "make_wave", spy_make_wave)
    monkeypatch.setattr(gaussian, "_normal_row", spy_normal_row)
    cfgp = write_cfg(tmp_path, "command = compare\nN = 8\nR = 20\nW = 1\nsamples = 40\n")
    for seed in range(10):
        coeff_seeds.clear()
        draw_seeds.clear()
        out = tmp_path / f"o{seed}"
        assert main(["--config", cfgp, "--out", str(out), "--seed", str(seed)]) == 0
        assert len(coeff_seeds) == 1 and len(draw_seeds) == 40
        assert coeff_seeds[0] not in draw_seeds
        assert len(set(draw_seeds)) == len(draw_seeds)


def test_charfn_header_and_meta(tmp_path):
    cfgp = write_cfg(
        tmp_path,
        "command = charfn\nN = 8\nR = 50\nsamples = 2000\nseed = 5\nt_max = 2.0\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfgp, "--out", str(out)]) == 0
    first = open(out / "charfn.csv").readline().strip()
    assert first == "seed,n_samples,h,W,R,N,m,t,re_psi,im_psi,predicted,stderr"
    rows = list(csv.DictReader(open(out / "charfn.csv")))
    assert float(rows[0]["re_psi"]) == 1.0
    assert float(rows[0]["predicted"]) == 1.0


def test_ns_estimate_rerun_invariance(tmp_path, capsys, monkeypatch):
    # the probe runs at the threshold 0.075, which fails 4 of these 50 draws,
    # so the exclusions are counted on every run
    monkeypatch.setattr(stats, "check_nondegenerate",
                        lambda F, W, h: check_nondegenerate(F, W, h, tau0=0.075))
    text = (
        "command = ns-estimate\nm = 2\nW = 4\nh = 0.1\n"
        "trials = 50\nseed = 9\ngenerator = uniform\n"
    )
    cfgp = write_cfg(tmp_path, text)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert main(["--config", cfgp, "--out", str(outs[0])]) == 0
    assert main(["--config", cfgp, "--out", str(outs[1])]) == 0
    # the benchmark's command line still passes --threads: parsed and ignored
    assert main(["--config", cfgp, "--out", str(outs[2]), "--threads", "2"]) == 0
    b0 = (outs[0] / "ns.csv").read_bytes()
    assert (outs[1] / "ns.csv").read_bytes() == b0  # reruns change nothing
    assert (outs[2] / "ns.csv").read_bytes() == b0
    # stdout names the exclusions by reason; they add up to the CSV's count
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("count density")]
    assert len(lines) == 3 and len(set(lines)) == 1
    excluded = int(next(csv.DictReader(open(outs[0] / "ns.csv")))["excluded"])
    assert excluded == 4
    by_reason = re.findall(r"([a-z_]+): (\d+)", lines[0])
    assert by_reason and sum(int(n) for _, n in by_reason) == excluded


def test_discrepancy_counts_the_ns_estimate_draws(tmp_path, capsys, monkeypatch):
    # the ns-estimate config above, whose probe at the threshold 0.075 fails
    # 4 of the 50 draws: discrepancy drops the same 4, says so on stdout in
    # ns-estimate's form, and its mean density is ns.csv's density mean
    monkeypatch.setattr(stats, "check_nondegenerate",
                        lambda F, W, h: check_nondegenerate(F, W, h, tau0=0.075))
    body = "m = 2\nW = 4\nh = 0.1\ntrials = 50\nseed = 9\ngenerator = uniform\n"
    for command in ("ns-estimate", "discrepancy"):
        cfgp = write_cfg(tmp_path, f"command = {command}\n{body}", f"{command}.cfg")
        assert main(["--config", cfgp, "--out", str(tmp_path / command)]) == 0
    out = capsys.readouterr().out
    assert "count density" in out
    assert re.search(r"^mean absolute deviation \S+ \+- \S+ \(4 excluded: probe_failed: 4\)$",
                     out, re.MULTILINE)
    ns = next(csv.DictReader(open(tmp_path / "ns-estimate" / "ns.csv")))
    disc = next(csv.DictReader(open(tmp_path / "discrepancy" / "discrepancy.csv")))
    assert (disc["mean_density"], disc["trials"]) == (ns["mean"], ns["trials"])


def test_ns_estimate_circle_row_is_the_density_row(tmp_path):
    # the CI wave-file config: in 2D every interior domain has one closed
    # outer curve, so the class,circle row holds the density row's per-trial
    # values, and both are summed in trial order: the same bytes
    gen = write_cfg(tmp_path, "command = gen-wave\nm = 2\nN = 8\nseed = 3\n", "gen.cfg")
    assert main(["--config", gen, "--out", str(tmp_path)]) == 0
    cfgp = write_cfg(tmp_path, "command = ns-estimate\ngenerator = file\n"
                     f"wave = {tmp_path / 'wave.txt'}\nW = 4\nh = 0.05\ntrials = 50\nseed = 1\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "ns")]) == 0
    rows = {(r["kind"], r["label"]): r for r in csv.DictReader(open(tmp_path / "ns" / "ns.csv"))}
    density, circle = rows[("density", "")], rows[("class", "circle")]
    assert float(density["mean"]) > 0
    assert (circle["mean"], circle["stderr"]) == (density["mean"], density["stderr"])


def test_fig1_outputs(tmp_path):
    cfgp = write_cfg(
        tmp_path,
        "command = fig1\nN = 9\nh = 0.25\nseed = 1\nwavenumber = 1.0\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfgp, "--out", str(out)]) == 0
    svg = (out / "fig1_N9.svg").read_text()
    assert svg.startswith("<svg")
    # overlay: one red circle per Bessel zero below the half-width
    assert svg.count("<circle") == sum(1 for z in bessel_zero_table(20) if z <= 20.0)
    rows = list(csv.DictReader(open(out / "fig1_profile_N9.csv")))
    assert rows[0]["r"] == "0.0"
    assert float(rows[0]["g"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0]["limit"]) == 1.0
    assert len(rows) == 201


def test_fig1_rejects_bad_geometry(tmp_path):
    # both rules are fig1's own, checked where the config is read
    cfgp = write_cfg(tmp_path, "command = fig1\nm = 3\nN = 9\nh = 0.25\n")
    with pytest.raises(ValueError, match="planar"):
        cli.load_config(cfgp)
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    cfgp2 = write_cfg(tmp_path, "command = fig1\nN = 9\nh = 0.25\nwavenumber = -1\n", "w.cfg")
    with pytest.raises(ValueError, match="wavenumber must be positive"):
        cli.load_config(cfgp2)
    assert main(["--config", cfgp2, "--out", str(tmp_path / "o2")]) == 2
    assert not (tmp_path / "o").exists() and not (tmp_path / "o2").exists()


def test_bessel_zero_table():
    assert bessel_zero_table(0) == []
    with pytest.raises(ValueError):
        bessel_zero_table(21)
    zeros = bessel_zero_table(20)
    assert len(zeros) == 20
    for got, want in zip(zeros, J0_ZEROS):
        assert got == pytest.approx(want, abs=1e-8)
    assert all(b > a for a, b in zip(zeros, zeros[1:]))
    # gaps approach pi
    assert zeros[-1] - zeros[-2] == pytest.approx(math.pi, abs=0.02)
