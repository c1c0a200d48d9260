import csv
import io
import math

import numpy as np
import pytest

from monowave import cli
from monowave.cli import (
    bessel_zero_table,
    config_from_mapping,
    load_wave,
    main,
    parse_config_text,
    save_wave,
)
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
    with pytest.raises(ValueError, match="frobnicate"):
        config_from_mapping({"command": "frobnicate"})
    with pytest.raises(ValueError, match="generator"):
        config_from_mapping({"command": "moments", "generator": "magic"})
    with pytest.raises(ValueError, match="coeffs"):
        config_from_mapping({"command": "moments", "coeffs": "zeros"})


def test_exit_codes(tmp_path, monkeypatch):
    bad = write_cfg(tmp_path, "command = moments\nbogus_key = 7\n")
    assert main(["--config", bad]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    # missing required key names the key
    nom = write_cfg(tmp_path, "command = nodal-stats\n", "nom.cfg")
    assert main(["--config", nom, "--out", str(tmp_path / "o1")]) == 2
    # argparse errors come back as exit 2, not SystemExit
    assert main(["--config"]) == 2

    def boom(cfg, outdir, threads):
        raise DegenerateSampleError("planted")

    monkeypatch.setitem(cli._RUNNERS, "gen-wave", boom)
    g = write_cfg(tmp_path, "command = gen-wave\nN = 4\n", "g.cfg")
    assert main(["--config", g, "--out", str(tmp_path / "o2")]) == 3


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


@pytest.mark.parametrize("command", ["kacrice", "ns-estimate", "discrepancy", "fig1"])
def test_file_generator_without_wave_key(tmp_path, capsys, command):
    cfgp = write_cfg(tmp_path, f"command = {command}\ngenerator = file\nW = 4\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert "requires config key 'wave'" in capsys.readouterr().err


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


def test_ns_estimate_thread_invariance(tmp_path):
    text = (
        "command = ns-estimate\nm = 2\nN = 64\nW = 4\nh = 0.1\n"
        "trials = 50\nseed = 9\ngenerator = uniform\n"
    )
    cfgp = write_cfg(tmp_path, text)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert main(["--config", cfgp, "--out", str(outs[0]), "--threads", "1"]) == 0
    assert main(["--config", cfgp, "--out", str(outs[1]), "--threads", "3"]) == 0
    assert main(["--config", cfgp, "--out", str(outs[2]), "--threads", "1"]) == 0
    b0 = (outs[0] / "ns.csv").read_bytes()
    assert (outs[1] / "ns.csv").read_bytes() == b0  # workers change nothing
    assert (outs[2] / "ns.csv").read_bytes() == b0  # reruns change nothing


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
    cfgp = write_cfg(tmp_path, "command = fig1\nm = 3\nN = 9\nh = 0.25\n")
    assert main(["--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    cfgp2 = write_cfg(tmp_path, "command = fig1\nN = 9\nh = 0.25\nwavenumber = -1\n", "w.cfg")
    assert main(["--config", cfgp2, "--out", str(tmp_path / "o2")]) == 2


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
