"""Command-line driver: parsing units, pipeline smoke, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import bargzeros
from bargzeros import detect, stats
from bargzeros import (
    ConfigError,
    DataError,
    Method,
    read_field,
    read_pointset_csv,
    write_pointset_csv,
)
from bargzeros.cli import (
    config_hash,
    main,
    parse_seeds,
    parse_spacing,
    read_config_file,
    spacing_token,
)


def test_import_loads_no_scipy():
    # every CLI stage is a fresh process, so what the package imports is
    # paid once per stage: NumPy alone, SciPy only in the tests
    src = str(Path(bargzeros.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, bargzeros, bargzeros.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


def test_namespace_leaves_out_test_only_names():
    # names that only the tests read are not exported from the package: the
    # matching oracle, the row and window helpers and the signal sampler
    # stay in their modules
    assert len(bargzeros.__all__) == len(set(bargzeros.__all__))
    assert all(hasattr(bargzeros, name) for name in bargzeros.__all__)
    for module, name in (("consistency", "wasserstein_within"), ("stats", "StatRow"),
                         ("consistency", "ConsistencyRow"), ("simulate", "window"),
                         ("signal", "sample_signal")):
        assert name not in bargzeros.__all__
        assert hasattr(getattr(bargzeros, module), name)
    for gone in ("failure_rate", "intensity_scale"):
        assert not hasattr(bargzeros, gone)
        assert not any(hasattr(getattr(bargzeros, m), gone)
                       for m in ("consistency", "signal"))


# ---------------------------------------------------------------------------
# argument parsing units


def test_parse_spacing():
    assert parse_spacing("2^-6") == 2.0 ** -6
    assert parse_spacing("2**-7") == 2.0 ** -7
    assert parse_spacing("2^(-5)") == 2.0 ** -5
    assert parse_spacing("0.25") == 0.25
    with pytest.raises(ConfigError):
        parse_spacing("two^minus six")


def test_spacing_token():
    assert spacing_token(2.0 ** -6) == "2m6"
    assert spacing_token(0.75) == "0p75"


def test_parse_seeds():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("5,7,11") == [5, 7, 11]
    assert parse_seeds("4") == [4]
    with pytest.raises(ConfigError):
        parse_seeds("3..1")
    with pytest.raises(ConfigError):
        parse_seeds("a,b")
    with pytest.raises(ConfigError):
        parse_seeds(" , ")
    for text in ("-1", "-3..2", "0,-4"):
        with pytest.raises(ConfigError, match="negative seed"):
            parse_seeds(text)
    with pytest.raises(ConfigError, match="repeated entry 5 in seeds '5,7,5'"):
        parse_seeds("5,7,5")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\ndelta = 2^-4  # dyadic\n\n# comment line\nsignal = zero\n")
    assert read_config_file(cfg) == {"L": "2", "delta": "2^-4", "signal": "zero"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    # a key set twice is refused, naming the key and both lines
    bad.write_text("L = 2\n# wider\nsignal = zero\nL = 3\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:4: key 'L' is already set on line 1"):
        read_config_file(bad)


def test_config_hash_is_order_insensitive():
    a = config_hash({"x": 1, "y": "2"})
    b = config_hash({"y": "2", "x": 1})
    assert a == b and len(a) == 12
    assert config_hash({"x": 2, "y": "2"}) != a


# ---------------------------------------------------------------------------
# pipeline smoke test (small grid, in-process)


@pytest.fixture()
def pipeline(tmp_path):
    fields = tmp_path / "fields"
    points = tmp_path / "points"
    rc = main([
        "simulate", "--L", "2", "--delta", "2^-4",
        "--signal", "zero", "--seeds", "0..2", "--out", str(fields),
    ])
    assert rc == 0
    rc = main([
        "detect", "--fields", str(fields), "--methods", "amn,st",
        "--levels", "0,1", "--target", "1.0", "--out", str(points),
    ])
    assert rc == 0
    return tmp_path, fields, points


def test_simulate_writes_caches(pipeline):
    _, fields, _ = pipeline
    caches = sorted(fields.iterdir())  # the caches and nothing else
    assert [p.name for p in caches] == [
        f"field_zero_A0_d2m4_s{s}.wfield" for s in (0, 1, 2)
    ]
    back = read_field(caches[0])
    assert back.grid.L == 2 and back.grid.delta == 2.0 ** -4
    assert back.seed == 0


def test_detect_emits_per_level_pointsets(pipeline):
    _, _, points = pipeline
    names = sorted(p.name for p in points.glob("*.csv"))
    expect = sorted(
        f"points_{m}_zero_A0_d{tok}_s{s}.csv"
        for m in ("amn", "st")
        for tok in ("2m4", "2m3")
        for s in (0, 1, 2)
    )
    assert names == expect
    ps = read_pointset_csv(points / "points_amn_zero_A0_d2m4_s0.csv")
    assert ps.delta == 2.0 ** -4 and ps.domain_halfwidth == 1.0 and ps.seed == 0


def test_detect_keeps_signals_apart(tmp_path, capsys):
    fields, points = tmp_path / "fields", tmp_path / "points"
    for signal in ("zero", "gauss:A=1"):
        assert main([
            "simulate", "--L", "2", "--delta", "2^-4",
            "--signal", signal, "--seeds", "0", "--out", str(fields),
        ]) == 0
    assert main([
        "detect", "--fields", str(fields), "--methods", "amn,st",
        "--target", "1.0", "--out", str(points),
    ]) == 0
    printed = capsys.readouterr().out
    written = sorted(p.name for p in points.glob("*.csv"))
    assert f"wrote {len(written)} point-set CSV(s)" in printed
    assert written == sorted(
        f"points_{m}_{sig}_d2m4_s0.csv" for m in ("amn", "st") for sig in ("gauss_A1", "zero_A0")
    )
    # the second simulate run writes next to the first
    assert sorted(p.name for p in fields.iterdir()) == [
        "field_gauss_A1_d2m4_s0.wfield", "field_zero_A0_d2m4_s0.wfield"
    ]
    meta = {}
    read_pointset_csv(points / "points_amn_gauss_A1_d2m4_s0.csv", meta=meta)
    assert meta["signal"] == "gauss:A=1.0"
    # stats over the mixed directory refuses the other signal's detections
    assert main([
        "stats", "--points", str(points), "--signal", "zero",
        "--boxes", "1", "--out", str(tmp_path / "stats.csv"),
    ]) == 2
    assert "config error" in capsys.readouterr().err


def test_pipeline_rerun_is_byte_identical(pipeline, tmp_path):
    _, fields, points = pipeline
    before = {p.name: p.read_bytes() for p in fields.iterdir()}
    before.update({p.name: p.read_bytes() for p in points.iterdir()})
    rc = main([
        "simulate", "--L", "2", "--delta", "2^-4",
        "--signal", "zero", "--seeds", "0..2", "--out", str(fields),
    ])
    assert rc == 0
    rc = main([
        "detect", "--fields", str(fields), "--methods", "amn,st",
        "--levels", "0,1", "--target", "1.0", "--out", str(points),
    ])
    assert rc == 0
    after = {p.name: p.read_bytes() for p in fields.iterdir()}
    after.update({p.name: p.read_bytes() for p in points.iterdir()})
    assert after == before


def _snapshot(*dirs):
    return {p: p.read_bytes() for d in dirs for p in sorted(d.iterdir())}


def test_simulate_draws_each_seed_once(tmp_path, monkeypatch):
    # checking the headers of the caches on disk draws nothing; each cache
    # written draws its seed once
    draws = []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or rng(seed))
    argv = ["simulate", "--L", "2", "--delta", "2^-4", "--signal", "gauss:A=1",
            "--seeds", "0..2", "--out", str(tmp_path)]
    assert main(argv) == 0 and main(argv) == 0
    assert draws == [0, 1, 2, 0, 1, 2]
    assert main([*argv, "--sigma", "2"]) == 2
    assert draws == [0, 1, 2, 0, 1, 2]


def test_simulate_refuses_another_configs_cache(tmp_path, capsys):
    # the cache name records signal, spacing and seed, not L or sigma, and
    # the amplitude to six digits: a run with other settings would replace
    # the first run's cache under the same name; only its header tells
    fields = tmp_path / "fields"
    cache = fields / "field_gauss_A1_d2m4_s0.wfield"
    first = {"L": "2", "sigma": "1", "signal": "gauss:A=1", "seeds": "0"}

    def simulate(**changes):
        flags = [tok for k, v in {**first, **changes}.items() for tok in (f"--{k}", v)]
        return main(["simulate", "--delta", "2^-4", "--out", str(fields), *flags])

    assert simulate() == 0
    before = _snapshot(fields)
    assert list(before) == [cache]  # no other record is written
    # other settings, or a seed list that only partly clashes, write nothing
    for change in ({"L": "3"}, {"sigma": "2"}, {"signal": "gauss:A=1.0000001"},
                   {"sigma": "2", "seeds": "1,0"}):
        assert simulate(**change) == 2, change
        err = capsys.readouterr().err
        assert "config error" in err and cache.name in err
        assert "Traceback" not in err
        assert _snapshot(fields) == before
    # the same config again rewrites byte-identically
    assert simulate() == 0
    assert _snapshot(fields) == before
    # a cache of another window half-length (an earlier version's T=2) is
    # another config's, and a header that does not read is a data error;
    # both stay as they are
    blob = cache.read_bytes()
    for edited, code in ((blob.replace(b'"T": 6.0', b'"T": 2.0', 1), 2), (b"\xff" + blob, 3)):
        assert edited != blob
        cache.write_bytes(edited)
        assert simulate() == code
        err = capsys.readouterr().err
        assert ("config error" if code == 2 else "data error") in err
        assert cache.name in err and "Traceback" not in err
        assert _snapshot(fields) == {cache: edited}
    # the cache header is the only record: once the cache is deleted,
    # another config writes its own under that name
    cache.unlink()
    assert simulate(sigma="2") == 0
    assert read_field(cache).source.sigma == 2.0
    assert list(_snapshot(fields)) == [cache]


def test_caches_of_earlier_versions(tmp_path, capsys):
    """Earlier versions wrote a ``margin`` key into every cache header: 0
    (all the command line wrote) is this version's lattice, and rings
    stored beyond ``L`` are refused."""
    fields = tmp_path / "fields"
    argv = ["simulate", "--delta", "2^-4", "--signal", "zero", "--seeds", "0",
            "--out", str(fields)]
    assert main([*argv, "--L", "2"]) == 0
    cache = fields / "field_zero_A0_d2m4_s0.wfield"
    line, _, payload = cache.read_bytes().partition(b"\n")
    new = read_field(cache)

    def write_old(**keys):
        header = json.dumps({**json.loads(line), **keys}, sort_keys=True).encode()
        cache.write_bytes(header + b"\n" + payload)

    write_old(margin=0)
    old = read_field(cache)
    assert old.grid == new.grid and old.values.tobytes() == new.values.tobytes()
    # its header is not this version's, so simulate does not replace it
    before = cache.read_bytes()
    assert main([*argv, "--L", "2"]) == 2
    assert cache.read_bytes() == before
    # the same 65x65 samples as L=1.875 with two rings: the axis count is off
    write_old(L=1.875, margin=2)
    with pytest.raises(DataError, match="axis count 65"):
        read_field(cache)
    before = cache.read_bytes()
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 3
    assert main([*argv, "--L", "1.875"]) == 2
    assert cache.read_bytes() == before
    assert "Traceback" not in capsys.readouterr().err


def test_detect_refuses_another_configs_points(pipeline, capsys):
    _, fields, points = pipeline
    argv = ["detect", "--fields", str(fields), "--methods", "amn,st", "--levels", "0,1",
            "--out", str(points)]
    before = _snapshot(points)
    assert main([*argv, "--target", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "points_amn_zero_A0_d2m4_s0.csv" in err
    assert "Traceback" not in err
    assert _snapshot(points) == before  # no CSV written, none replaced
    assert main([*argv, "--target", "1.0"]) == 0
    assert _snapshot(points) == before
    # a point set that records no config is not replaced either
    target = points / "points_st_zero_A0_d2m3_s2.csv"
    write_pointset_csv(read_pointset_csv(target), target)
    before = _snapshot(points)
    assert main([*argv, "--target", "1.0"]) == 2
    assert "config None" in capsys.readouterr().err
    assert _snapshot(points) == before


def test_detect_refuses_two_sources_for_one_csv(tmp_path, capsys):
    # level 1 of a 2^-4 field and level 0 of a 2^-3 field share the CSV name
    fields, points = tmp_path / "fields", tmp_path / "points"
    for delta in ("2^-4", "2^-3"):
        assert main(["simulate", "--L", "2", "--delta", delta, "--signal", "zero",
                     "--seeds", "0", "--out", str(fields)]) == 0
    assert main(["detect", "--fields", str(fields), "--methods", "amn", "--levels", "0,1",
                 "--out", str(points)]) == 2
    err = capsys.readouterr().err
    assert "points_amn_zero_A0_d2m3_s0.csv" in err and "Traceback" not in err
    assert not points.exists()


def test_stats_over_detections(pipeline, capsys):
    tmp, _, points = pipeline
    out = tmp / "reports" / "stats.csv"
    rc = main([
        "stats", "--points", str(points), "--signal", "zero",
        "--boxes", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    assert header[:2] == ["estimator", "signal"]
    # 2 methods x 2 spacings x 1 box x 2 estimators
    assert len(lines) == 2 + 8
    printed = capsys.readouterr().out
    assert "intensity[AMN]" in printed and "R=3" in printed


def test_stats_integrates_each_expected_count_once(pipeline, monkeypatch):
    # 2 methods x 2 spacings share each box's expected count; a traced run
    # wraps this module attribute, as here
    tmp, _, points = pipeline
    calls = []

    def counted(*args, _count=stats.expected_count, **kwargs):
        calls.append((args, sorted(kwargs.items())))
        return _count(*args, **kwargs)

    monkeypatch.setattr(stats, "expected_count", counted)
    assert main(["stats", "--points", str(points), "--signal", "zero",
                 "--boxes", "0.5,1", "--out", str(tmp / "stats.csv")]) == 0
    assert len(calls) == 2 and calls[0] != calls[1]


def test_stats_refuses_another_configs_file(pipeline, capsys):
    tmp, _, points = pipeline
    out = tmp / "stats.csv"
    argv = ["stats", "--points", str(points), "--signal", "zero", "--out"]
    assert main([*argv, str(out), "--boxes", "0.5,1"]) == 0
    report = out.read_bytes()
    # another box list would replace the report
    assert main([*argv, str(out), "--boxes", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "stats.csv" in err and "Traceback" not in err
    assert out.read_bytes() == report
    # a point set (detect's config) is not turned into a report
    target = points / "points_amn_zero_A0_d2m4_s0.csv"
    before = target.read_bytes()
    assert main([*argv, str(target), "--boxes", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert target.read_bytes() == before
    # the same config again rewrites the report byte-identically
    assert main([*argv, str(out), "--boxes", "0.5,1"]) == 0
    assert out.read_bytes() == report


def test_stats_report_inside_its_points_directory(pipeline, capsys):
    # neither the report nor a consistency report and its aggregate among
    # the point sets is read back as a point set on the next run
    _, fields, points = pipeline
    out = points / "stats.csv"
    argv = ["stats", "--points", str(points), "--signal", "zero", "--boxes", "1",
            "--out", str(out)]
    assert main(argv) == 0
    report = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == report
    assert main(["consistency", "--fields", str(fields), "--methods", "amn", "--levels", "1",
                 "--out", str(points / "cons.csv")]) == 0
    assert (points / "cons_aggregate.csv").exists()
    assert main(argv) == 0
    assert out.read_bytes() == report
    assert "Traceback" not in capsys.readouterr().err


def test_stats_refuses_point_sets_of_two_Ts(tmp_path, capsys):
    # point sets record the window half-length of their cache, which is
    # fixed at 6; a point set of another T (an edited line here, as no cache
    # of another T reads) would pool detections on other fields
    fields, points, out = tmp_path / "fields", tmp_path / "points", tmp_path / "s.csv"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--seeds", "0..3", "--out", str(fields)]) == 0
    assert main(["detect", "--fields", str(fields), "--methods", "amn", "--out", str(points)]) == 0
    edited = points / "points_amn_zero_A0_d2m4_s2.csv"
    meta = {}
    read_pointset_csv(edited, meta=meta)
    assert (meta["T"], meta["sigma"]) == ("6.0", "1.0")
    text = edited.read_text()
    edited.write_text(text.replace("# T=6.0\n", "# T=2.0\n"))
    argv = ["stats", "--points", str(points), "--signal", "zero", "--boxes", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "holds detections of T '2.0', not '6.0'" in err
    assert edited.name in err and "Traceback" not in err
    assert not out.exists()
    # a point set of an earlier version records no T or no sigma: a data
    # error that names the key
    for key in ("T", "sigma"):
        edited.write_text("".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith(f"# {key}=")))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"records no {key}: a point set of an earlier" in err
        assert "Traceback" not in err and not out.exists()
    edited.write_text(text)
    assert main(argv) == 0
    assert "R=4" in capsys.readouterr().out


def test_stats_refuses_point_sets_of_another_sigma(tmp_path, capsys):
    fields, points, out = tmp_path / "fields", tmp_path / "points", tmp_path / "s.csv"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--sigma", "2", "--seeds", "0", "--out", str(fields)]) == 0
    assert main(["detect", "--fields", str(fields), "--methods", "amn", "--out", str(points)]) == 0
    argv = ["stats", "--points", str(points), "--signal", "zero", "--boxes", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "holds detections of sigma '2.0', not '1.0'" in err
    assert not out.exists()
    assert main([*argv, "--sigma", "2"]) == 0


def test_stats_reads_the_point_sets_of_its_own_signal(tmp_path):
    # 901*exp(1/2)*exp(-1/2) is 901.0000000000001, which scales to another
    # coefficient: a cache recording it regenerated a signal whose point
    # sets stats refused as another signal's
    fields, points = tmp_path / "fields", tmp_path / "points"
    signal = "hermite1:A=901"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", signal,
                 "--seeds", "0", "--out", str(fields)]) == 0
    cache = fields / "field_hermite1_A901_d2m4_s0.wfield"
    assert bargzeros.simulate.read_header(cache)["signal"] == "hermite1:A=901.0"
    assert main(["detect", "--fields", str(fields), "--methods", "amn",
                 "--out", str(points)]) == 0
    assert main(["stats", "--points", str(points), "--signal", signal, "--boxes", "1",
                 "--out", str(tmp_path / "s.csv")]) == 0


def test_noiseless_cache_records_no_noise(tmp_path, capsys):
    # a cache of a zero_noise field records sigma 0, so stats does not count
    # its detections as those of noise level 1, and consistency does not pool
    # it with noisy caches; an earlier version's noiseless cache, which
    # recorded sigma 1, is refused
    fields, points, out = tmp_path / "fields", tmp_path / "points", tmp_path / "s.csv"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "gauss:A=1",
                 "--sigma", "1", "--seeds", "0", "--out", str(fields)]) == 0
    g = bargzeros.make_grid(L=2.0, delta=2.0**-4)
    model = bargzeros.parse_signal("gauss:A=1")
    cache = tmp_path / "noiseless" / "field_gauss_A1_d2m4_sx.wfield"
    cache.parent.mkdir()
    bargzeros.write_field(
        bargzeros.synthesize_field(bargzeros.zero_noise(g), model, g), cache)
    written = cache.read_bytes()
    assert b'"seed": null' in written and b'"sigma": 0.0' in written
    assert read_field(cache).source.sigma == 0.0
    assert main(["detect", "--fields", str(cache.parent), "--methods", "amn",
                 "--out", str(points)]) == 0
    assert main(["stats", "--points", str(points), "--signal", "gauss:A=1",
                 "--sigma", "1", "--boxes", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "holds detections of sigma '0.0', not '1.0'" in err and not out.exists()
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for p in (*fields.iterdir(), cache):
        (mixed / p.name).write_bytes(p.read_bytes())
    consistency = ["consistency", "--fields", str(mixed), "--levels", "1",
                   "--out", str(tmp_path / "c.csv")]
    assert main(consistency) == 2
    err = capsys.readouterr().err
    assert "2 sigmas" in err and "Traceback" not in err
    earlier = written.replace(b'"sigma": 0.0', b'"sigma": 1.0')
    for path in (cache, mixed / cache.name):
        path.write_bytes(earlier)
    with pytest.raises(DataError, match="as earlier versions did"):
        read_field(cache)
    detect = ["detect", "--fields", str(cache.parent), "--out", str(tmp_path / "p2")]
    for argv in (detect, consistency):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and 'without noise ("seed": null) that records sigma 1.0' in err
        assert "Traceback" not in err
    assert not (tmp_path / "p2").exists() and not (tmp_path / "c.csv").exists()


def test_consistency_refuses_another_configs_file(pipeline, capsys):
    tmp, fields, _ = pipeline
    argv = ["consistency", "--fields", str(fields), "--methods", "amn", "--levels", "1",
            "--out"]
    # a field cache is no consistency report: neither it nor a new aggregate
    # next to it is written
    before = _snapshot(fields)
    assert main([*argv, str(fields / "field_zero_A0_d2m4_s1.wfield")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert _snapshot(fields) == before
    reports = tmp / "reports"
    assert main([*argv, str(reports / "consistency.csv")]) == 0
    before = _snapshot(reports)  # the report and its aggregate
    assert main([*argv, str(reports / "consistency.csv"), "--proxy", "mgn"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert _snapshot(reports) == before
    # the same config again rewrites both files byte-identically
    assert main([*argv, str(reports / "consistency.csv")]) == 0
    assert _snapshot(reports) == before


@pytest.fixture()
def same_named_caches(tmp_path):
    """Two cache directories holding ``field_zero_A0_d2m4_s0.wfield``, of
    other grids: the name records signal, spacing and seed, not L."""
    dirs = []
    for name, L in (("A", "2"), ("B", "3")):
        assert main(["simulate", "--L", L, "--delta", "2^-4", "--signal", "zero",
                     "--seeds", "0", "--out", str(tmp_path / name)]) == 0
        dirs.append(tmp_path / name)
    assert [sorted(p.name for p in d.glob("*.wfield")) for d in dirs] == [
        ["field_zero_A0_d2m4_s0.wfield"]] * 2
    return tmp_path, *dirs


def test_detect_refuses_points_of_other_inputs(same_named_caches, capsys):
    tmp, a, b = same_named_caches
    points = tmp / "P"
    argv = ["detect", "--out", str(points), "--target", "1", "--fields"]
    assert main([*argv, str(a)]) == 0
    before = _snapshot(points)
    assert main([*argv, str(b)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "points_amn_zero_A0_d2m4_s0.csv" in err
    assert "Traceback" not in err
    assert _snapshot(points) == before
    # the same inputs again rewrite every point set byte-identically
    assert main([*argv, str(a)]) == 0
    assert _snapshot(points) == before


def test_stats_refuses_a_report_of_other_inputs(same_named_caches, capsys):
    tmp, a, b = same_named_caches
    for fields in (a, b):
        assert main(["detect", "--fields", str(fields), "--out", str(tmp / f"P{fields.name}"),
                     "--target", "1"]) == 0
    out = tmp / "stats.csv"
    argv = ["stats", "--signal", "zero", "--boxes", "1", "--out", str(out), "--points"]
    assert main([*argv, str(tmp / "PA")]) == 0
    report = out.read_bytes()
    assert main([*argv, str(tmp / "PB")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "stats.csv" in err and "Traceback" not in err
    assert out.read_bytes() == report
    assert main([*argv, str(tmp / "PA")]) == 0
    assert out.read_bytes() == report


def test_consistency_refuses_a_report_of_other_inputs(same_named_caches, capsys):
    tmp, a, b = same_named_caches
    reports = tmp / "reports"
    argv = ["consistency", "--methods", "amn", "--levels", "1",
            "--out", str(reports / "c.csv"), "--fields"]
    assert main([*argv, str(a)]) == 0
    before = _snapshot(reports)  # the report and its aggregate
    assert main([*argv, str(b)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "c.csv" in err and "Traceback" not in err
    assert _snapshot(reports) == before
    assert main([*argv, str(a)]) == 0
    assert _snapshot(reports) == before


def test_consistency_refuses_caches_of_two_signals(tmp_path, capsys):
    # a failure table over both signals would pool their rows, and no
    # column would tell which signal a row came from
    fields = tmp_path / "fields"
    for signal in ("zero", "hermite1:A=3"):
        assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", signal,
                     "--seeds", "0..1", "--out", str(fields)]) == 0
    assert main(["consistency", "--fields", str(fields), "--levels", "1",
                 "--out", str(tmp_path / "reports" / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "2 signals (hermite1:A=3.0, zero)" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fields"]


def test_consistency_refuses_caches_of_two_precisions(tmp_path, capsys):
    # a complex64 cache of an earlier version holds other samples than the
    # complex128 ones; its header is refused as data in every command, so
    # consistency does not get as far as pooling it with the others, and
    # simulate does not replace it
    fields = tmp_path / "fields"
    argv = ["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
            "--seeds", "0..1", "--out", str(fields)]
    assert main(argv) == 0
    cache = fields / "field_zero_A0_d2m4_s1.wfield"
    line, _, _ = cache.read_bytes().partition(b"\n")
    header = json.dumps({**json.loads(line), "precision": "complex64"}, sort_keys=True)
    half = read_field(cache).values.astype("complex64")
    cache.write_bytes(header.encode() + b"\n" + half.tobytes())
    before = _snapshot(fields)
    for cmd in (["consistency", "--fields", str(fields), "--levels", "1",
                 "--out", str(tmp_path / "reports" / "c.csv")],
                ["detect", "--fields", str(fields), "--out", str(tmp_path / "points")],
                argv):
        assert main(cmd) == 3, cmd
        err = capsys.readouterr().err
        assert "data error" in err and "'complex64' samples, not complex128" in err
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fields"]
    assert _snapshot(fields) == before


@pytest.mark.parametrize("flag, value, seeds, named", [
    ("--delta", "2^-3", "0..1", "2 deltas (0.0625, 0.125)"),
    ("--L", "3", "2..3", "2 Ls (2.0, 3.0)"),
], ids=["delta", "L"])
def test_consistency_refuses_caches_of_two_grids(tmp_path, capsys, flag, value, seeds, named):
    # a failure table over two grids would pool their rows: at two spacings
    # it counts each seed twice, against two different proxies
    fields = tmp_path / "fields"
    base = {"--L": "2", "--delta": "2^-4"}
    for settings, run_seeds in ((base, "0..1"), ({**base, flag: value}, seeds)):
        argv = [tok for item in settings.items() for tok in item]
        assert main(["simulate", *argv, "--signal", "zero", "--seeds", run_seeds,
                     "--out", str(fields)]) == 0
    assert main(["consistency", "--fields", str(fields), "--levels", "1",
                 "--out", str(tmp_path / "reports" / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fields"]


def test_consistency_report_and_aggregate(pipeline, capsys):
    tmp, fields, _ = pipeline
    out = tmp / "reports" / "consistency.csv"
    rc = main([
        "consistency", "--fields", str(fields), "--methods", "amn",
        "--levels", "1", "--proxy", "amn", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 3  # meta + header + one row per seed
    agg = out.with_name("consistency_aggregate.csv")
    agg_lines = agg.read_text().splitlines()
    assert agg_lines[1] == "delta,AMN"
    assert "failure probability" in capsys.readouterr().out
    # every method at two levels: each aggregate cell is a float that reads
    # back as the mean of its (delta_lo, method) certificates (1/3 included)
    out = tmp / "reports" / "all.csv"
    assert main(["consistency", "--fields", str(fields), "--methods", "amn,mgn,st",
                 "--levels", "1,2", "--proxy", "amn", "--out", str(out)]) == 0
    certs = {}
    for rec in csv.DictReader(out.read_text().splitlines()[1:]):
        certs.setdefault((float(rec["delta_lo"]), rec["method"]), []).append(
            int(rec["certificate"]))
    agg = list(csv.DictReader(out.with_name("all_aggregate.csv").read_text().splitlines()[1:]))
    cells = {(float(rec["delta"]), m): float(rec[m]) for rec in agg for m in ("AMN", "MGN", "ST")}
    assert cells.keys() == certs.keys() and len(cells) == 6
    assert all(cells[k] == sum(c) / len(c) for k, c in certs.items())


def test_cli_detectors_are_looked_up_in_the_detect_module(tmp_path, monkeypatch):
    # a traced run wraps the module attributes bargzeros.detect.amn/mgn/st,
    # so every detector call of the CLI must go through them
    calls = dict.fromkeys(Method, 0)
    for m in Method:
        def counted(*args, _detect=getattr(detect, m.value), _m=m, **kwargs):
            calls[_m] += 1
            return _detect(*args, **kwargs)
        monkeypatch.setattr(detect, m.value, counted)
    fields, points = tmp_path / "fields", tmp_path / "points"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--seeds", "0..1", "--out", str(fields)]) == 0
    assert main(["detect", "--fields", str(fields), "--levels", "0,1",
                 "--out", str(points)]) == 0
    # 2 caches x 2 levels, one CSV per call
    assert calls == {Method.AMN: 4, Method.MGN: 4, Method.ST: 4}
    assert len(list(points.glob("*.csv"))) == 12
    assert main(["consistency", "--fields", str(fields), "--levels", "1,2",
                 "--out", str(tmp_path / "c.csv")]) == 0
    # 2 caches x 2 levels, plus the amn proxy of each cache
    assert calls == {Method.AMN: 4 + 6, Method.MGN: 4 + 4, Method.ST: 4 + 4}


def test_method_tokens_are_read_in_any_case(tmp_path, capsys):
    fields = tmp_path / "fields"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--seeds", "0..1", "--out", str(fields)]) == 0
    written = {}
    for run, (methods, proxy) in {"lower": ("amn,mgn,st", "mgn"),
                                  "mixed": ("AMN,Mgn,st", "MGN")}.items():
        out = tmp_path / run
        assert main(["detect", "--fields", str(fields), "--methods", methods, "--levels", "0,1",
                     "--out", str(out / "points")]) == 0
        assert main(["consistency", "--fields", str(fields), "--methods", methods,
                     "--levels", "1", "--proxy", proxy, "--out", str(out / "c.csv")]) == 0
        written[run] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
    assert len(written["lower"]) == 12 + 2
    assert written["mixed"] == written["lower"]
    # sieve is a function of bargzeros.detect, but not a detector
    assert main(["detect", "--fields", str(fields), "--methods", "amn,sieve",
                 "--out", str(tmp_path / "neg")]) == 2
    assert main(["consistency", "--fields", str(fields), "--proxy", "sieve",
                 "--out", str(tmp_path / "neg" / "c.csv")]) == 2
    assert not (tmp_path / "neg").exists()
    err = capsys.readouterr().err
    assert "methods: unknown method 'sieve'; choose from amn, mgn, st" in err
    assert "proxy: unknown method 'sieve'; choose from amn, mgn, st" in err
    assert "Traceback" not in err


def test_config_file_with_flag_override(tmp_path):
    fields = tmp_path / "fields"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "L = 2\ndelta = 2^-4\nT = 6\nsignal = zero\nseeds = 0..1\n"
        f"out = {fields}\n"
    )
    rc = main(["simulate", "--config", str(cfg), "--seeds", "5"])
    assert rc == 0
    assert [p.name for p in sorted(fields.glob("*.wfield"))] == [
        "field_zero_A0_d2m4_s5.wfield"
    ]


# the README's detect, stats and consistency commands
_README_ARGV = {
    "detect": ["--fields", "fields", "--out", "points", "--methods", "amn,mgn,st",
               "--levels", "0,1"],
    "stats": ["--points", "points", "--signal", "zero", "--sigma", "1", "--boxes", "1,2",
              "--out", "stats.csv"],
    "consistency": ["--fields", "fields", "--methods", "amn,mgn,st", "--levels", "1,2",
                    "--proxy", "amn", "--out", "consistency.csv"],
}


def test_config_file_runs_match_flag_runs(tmp_path, monkeypatch, capsys):
    # each flag of the README's commands, given instead as the config key of
    # the same name, writes the same bytes and prints the same lines
    runs = {}
    for how in ("flags", "config"):
        d = tmp_path / how
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(["simulate", "--out", "fields", "--L", "3", "--delta", "2^-4",
                     "--signal", "zero", "--sigma", "1", "--seeds", "0..2"]) == 0
        printed = [capsys.readouterr().out]
        for cmd, argv in _README_ARGV.items():
            if how == "config":
                lines = [f"{flag[2:]} = {val}\n" for flag, val in zip(argv[::2], argv[1::2])]
                Path(f"{cmd}.cfg").write_text("".join(lines))
                argv = ["--config", f"{cmd}.cfg"]
            assert main([cmd, *argv]) == 0
            printed.append(capsys.readouterr().out)
        written = {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*"))
                   if p.is_file() and p.suffix != ".cfg"}
        runs[how] = printed, written
    # caches, 3 methods x 2 levels x 3 seeds point sets, the stats report,
    # the consistency report and its aggregate
    assert len(runs["flags"][1]) == 3 + 3 * 2 * 3 + 1 + 2
    assert runs["config"] == runs["flags"]


@pytest.mark.parametrize("cmd, flags", [
    ("simulate", "--L --delta --T --sigma --signal --seeds --out"),
    ("detect", "--fields --methods --levels --target --out"),
    ("stats", "--points --signal --sigma --boxes --out"),
    ("consistency", "--fields --methods --levels --proxy --out"),
])
def test_help_lists_every_flag(capsys, cmd, flags):
    with pytest.raises(SystemExit) as exit_:
        main([cmd, "--help"])
    assert exit_.value.code == 0
    listed = re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M)
    assert sorted(listed) == sorted(["--config", *flags.split()])


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_errors(tmp_path, capsys):
    # missing required setting
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--out", str(tmp_path)]) == 2
    # incompatible grid: L/delta not an integer
    assert main([
        "simulate", "--L", "4", "--delta", "0.3", "--signal", "zero",
        "--seeds", "0", "--out", str(tmp_path / "x"),
    ]) == 2
    # a window half-length other than 6
    assert main([
        "simulate", "--L", "2", "--delta", "2^-4", "--T", "2", "--signal", "zero",
        "--seeds", "0", "--out", str(tmp_path / "x"),
    ]) == 2
    # an empty seed list, from a flag or a config file, writes no cache
    # and creates no directory
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--seeds", ",", "--out", str(tmp_path / "x")]) == 2
    cfg = tmp_path / "seeds.cfg"
    cfg.write_text("seeds = , \n")
    assert main(["simulate", "--config", str(cfg), "--L", "2", "--delta", "2^-4",
                 "--signal", "zero", "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()
    # flag text and config-file text go through the same parsers: a number
    # or spacing that does not parse, or a non-finite one, is a config error
    # so is a key the subcommand has no flag for, misspelled or removed
    for text in ("L = abc", "L = 2\nmargin = 1.5", "L = 2\nmargni = 2\ntt = 1"):
        cfg.write_text(text + "\n")
        assert main(["simulate", "--config", str(cfg), "--delta", "2^-4",
                     "--signal", "zero", "--seeds", "0", "--out", str(tmp_path / "x")]) == 2
    for flags in (["--L", "2", "--delta", "2^-x"], ["--L", "2", "--delta", "nan"],
                  ["--L", "nan", "--delta", "2^-4"], ["--L", "inf", "--delta", "2^-4"],
                  ["--L", "2", "--delta", "2^-4", "--sigma", "nan"]):
        assert main(["simulate", *flags, "--signal", "zero", "--seeds", "0",
                     "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()
    # a signal amplitude that is not finite, whose coefficient overflows
    # (A * e^1/2 for hermite1), or whose field could overflow inside
    # synthesis is refused before the directory is created, with no
    # RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for signal in ("gauss:A=nan", "gauss:A=inf", "hermite1:A=1.1e308",
                       "gauss:A=1e308", "hermite1:A=1e308"):
            assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", signal,
                         "--seeds", "0", "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()
    # unknown detector, or a simulate key in a detect config
    (tmp_path / "f").mkdir()
    cfg.write_text(f"fields = {tmp_path / 'f'}\nL = 2\n")
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert not (tmp_path / "p").exists()
    assert main(["detect", "--fields", str(tmp_path / "f"), "--methods", "foo",
                 "--out", str(tmp_path / "p")]) == 2
    # consistency level 0 is the proxy itself, and st is no proxy; neither
    # run creates the report's directory
    assert main(["consistency", "--fields", str(tmp_path / "f"), "--levels", "0",
                 "--out", str(tmp_path / "new0" / "c.csv")]) == 2
    assert main(["consistency", "--fields", str(tmp_path / "f"), "--proxy", "st",
                 "--out", str(tmp_path / "new1" / "c.csv")]) == 2
    assert not list(tmp_path.glob("new*"))
    # a key set twice in a config file writes nothing either
    cfg.write_text("L = 2\nL = 3\n")
    assert main(["simulate", "--config", str(cfg), "--delta", "2^-4",
                 "--signal", "zero", "--seeds", "0", "--out", str(tmp_path / "new2")]) == 2
    assert not list(tmp_path.glob("new*"))
    # an empty method or level list
    assert main(["detect", "--fields", str(tmp_path / "f"), "--methods", ",",
                 "--out", str(tmp_path / "p")]) == 2
    assert main(["detect", "--fields", str(tmp_path / "f"), "--levels", ",",
                 "--out", str(tmp_path / "p")]) == 2
    # a box halfwidth that is not a number
    assert main(["stats", "--points", str(tmp_path / "f"), "--signal", "zero",
                 "--boxes", "1,x", "--out", str(tmp_path / "s.csv")]) == 2
    # a subsampling ladder deeper than the grid allows
    fields = tmp_path / "fields"
    assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                 "--seeds", "0", "--out", str(fields)]) == 0
    assert main(["detect", "--fields", str(fields), "--levels", "9",
                 "--out", str(tmp_path / "p")]) == 2
    # a non-finite target box or noise level
    assert main(["detect", "--fields", str(fields), "--target", "nan",
                 "--out", str(tmp_path / "p")]) == 2
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 0
    assert main(["stats", "--points", str(tmp_path / "p"), "--signal", "zero",
                 "--sigma", "nan", "--out", str(tmp_path / "s.csv")]) == 2
    assert not (tmp_path / "s.csv").exists()
    # a negative seed, a negative target box, and a repeated list entry
    # (which would write every row twice) are refused before anything is
    # written
    for seeds in ("-1", "-2..0", "1,1"):
        assert main(["simulate", "--L", "2", "--delta", "2^-4", "--signal", "zero",
                     f"--seeds={seeds}", "--out", str(tmp_path / "y")]) == 2
    assert not (tmp_path / "y").exists()
    for flags in (["--target", "-1"], ["--methods", "st", "--target", "-0.5"],
                  ["--methods", "amn,AMN"], ["--levels", "0,1,0"], ["--levels", "0,-1"]):
        assert main(["detect", "--fields", str(fields), *flags,
                     "--out", str(tmp_path / "q")]) == 2
    assert not (tmp_path / "q").exists()
    assert main(["consistency", "--fields", str(fields), "--levels", "1,1",
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert not list(tmp_path.glob("c*.csv"))
    assert main(["stats", "--points", str(tmp_path / "p"), "--signal", "zero",
                 "--boxes", "1,1.0", "--out", str(tmp_path / "s.csv")]) == 2
    assert not (tmp_path / "s.csv").exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert "not subsamplable" in err
    assert "seeds: negative seed -1" in err
    assert "box halfwidth must be >= 0, got -0.5" in err
    assert "repeated entry 1 in levels '1,1'" in err
    assert "subsampling levels must be >= 0" in err
    assert "repeated entry 1.0 in boxes '1,1.0'" in err
    assert "L: could not convert string to float: 'abc'" in err
    assert "unknown key(s) for simulate: margin" in err
    assert "unknown key(s) for simulate: margni, tt" in err
    assert "unknown key(s) for detect: L" in err
    assert "proxy must be amn or mgn, got 'st'" in err
    assert "key 'L' is already set on line 1" in err
    assert "signal coefficient must be finite, got (inf+0j)" in err
    assert "T = 2.0: the window half-length is fixed at 6.0" in err
    assert "signal amplitude or sigma so large that synthesis could overflow" in err
    assert "Traceback" not in err


def test_exit_code_data_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    # no caches or point sets to read: no output directory is created
    assert main(["detect", "--fields", str(empty), "--out", str(tmp_path / "p")]) == 3
    assert main(["stats", "--points", str(empty), "--signal", "zero",
                 "--out", str(tmp_path / "new0" / "s.csv")]) == 3
    assert main(["consistency", "--fields", str(empty),
                 "--out", str(tmp_path / "new1" / "c.csv")]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty"]
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 3
    # a config file that is not UTF-8 cannot be read either
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"L = 2\n\xff\xfe = 3\n")
    assert main(["simulate", "--config", str(latin)]) == 3
    err = capsys.readouterr().err
    assert f"data error: cannot read config file {latin}" in err and "Traceback" not in err
    # a cache whose header lacks a key
    fields = tmp_path / "fields"
    assert main(["simulate", "--L", "1", "--delta", "2^-3", "--signal", "zero",
                 "--seeds", "0", "--out", str(fields)]) == 0
    cache = next(fields.glob("*.wfield"))
    header, _, payload = cache.read_bytes().partition(b"\n")
    meta = json.loads(header)
    # a window half-length other than 6 (an earlier version's, or an edit)
    # is refused before any noise is drawn, and nothing is written
    cache.write_bytes(json.dumps({**meta, "T": 2.0}).encode() + b"\n" + payload)
    named = f"{cache}: T = 2.0: the window half-length is fixed at 6.0"
    with pytest.raises(DataError) as e:
        read_field(cache)
    assert str(e.value) == named  # a cache of another version, not a corrupt one
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 3
    assert main(["consistency", "--fields", str(fields),
                 "--out", str(tmp_path / "c" / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count(named) == 2 and "corrupt" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "fields", "latin.cfg"]
    # a negative seed, which no noise draw accepts
    cache.write_bytes(json.dumps({**meta, "seed": -1}).encode() + b"\n" + payload)
    with pytest.raises(DataError, match="seed"):
        read_field(cache)
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 3
    del meta["n_axis"]
    cache.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 3
    # a point-set CSV with an unknown method
    points = tmp_path / "points"
    points.mkdir()
    (points / "points_bad.csv").write_text(
        "# method=BOGUS\n# delta=0.25\n# domain_halfwidth=1.0\n# seed=0\n"
        "re,im,k,l,method,delta,seed\n"
    )
    assert main(["stats", "--points", str(points), "--signal", "zero",
                 "--out", str(tmp_path / "s2.csv")]) == 3
    # a point-set CSV whose domain box has a negative half-width
    (points / "points_bad.csv").write_text(
        "# method=ST\n# delta=0.25\n# domain_halfwidth=-0.5\n# seed=0\n"
        "re,im,k,l,method,delta,seed\n"
    )
    with pytest.raises(DataError, match="domain_halfwidth must be >= 0"):
        read_pointset_csv(points / "points_bad.csv")
    assert main(["stats", "--points", str(points), "--signal", "zero",
                 "--out", str(tmp_path / "s2.csv")]) == 3
    assert not (tmp_path / "s2.csv").exists()
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("signal, old, new, named", [
    ("zero", b'"signal": "zero"', b'"signal": null', "corrupt field cache"),
    ("hermite1:A=1", b'"hermite1:A=1.0"', b'"hermite1:A=1e+308"',
     "signal amplitude or sigma so large that synthesis could overflow"),
], ids=["no-signal", "overflow"])
def test_caches_whose_realization_does_not_regenerate(tmp_path, capsys, signal, old, new,
                                                       named):
    # every cache records a realization: a header with no signal (no version
    # writes one), or one whose source could overflow, is a data error, and
    # neither detect nor consistency writes anything
    fields = tmp_path / "fields"
    assert main(["simulate", "--L", "2", "--delta", "2^-3", "--signal", signal,
                 "--seeds", "0", "--out", str(fields)]) == 0
    (cache,) = fields.iterdir()
    blob = cache.read_bytes()
    assert blob.count(old) == 1
    cache.write_bytes(blob.replace(old, new))
    with pytest.raises(DataError, match=named):
        read_field(cache)
    assert main(["detect", "--fields", str(fields), "--out", str(tmp_path / "p")]) == 3
    assert main(["consistency", "--fields", str(fields), "--levels", "1",
                 "--out", str(tmp_path / "c" / "c.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count(f"data error: {cache}: {named}") == 2 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fields"]


# ---------------------------------------------------------------------------
# corrupted inputs: every byte edit ends in an exit code, never a traceback


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    """One small field cache and one AMN point-set CSV detected on it."""
    root = tmp_path_factory.mktemp("clean")
    assert main(["simulate", "--L", "2", "--delta", "2^-3", "--signal", "zero",
                 "--seeds", "0", "--out", str(root / "fields")]) == 0
    assert main(["detect", "--fields", str(root / "fields"), "--methods", "amn",
                 "--out", str(root / "points")]) == 0
    (cache,) = (root / "fields").glob("*.wfield")
    (points,) = (root / "points").glob("*.csv")
    return cache, points


# One edit per example: a byte flipped (XOR with a non-zero mask), the file
# cut short, or one byte inserted.  Positions favour the first 256 bytes,
# where the cache header and the CSV metadata live.  A single edit cannot
# turn a header number into one large enough to make the reader allocate
# more than a few MB (a written-out exponent needs two).
_EDITS = hst.tuples(
    hst.sampled_from(["flip", "truncate", "insert"]),
    hst.one_of(hst.integers(0, 255), hst.integers(0, 2 ** 20)),
    hst.integers(1, 255),
)


def _edit(data: bytes, edit) -> bytes:
    kind, pos, byte = edit
    if kind == "flip":
        pos %= len(data)
        return data[:pos] + bytes([data[pos] ^ byte]) + data[pos + 1 :]
    if kind == "truncate":
        return data[: pos % len(data)]
    pos %= len(data) + 1
    return data[:pos] + bytes([byte]) + data[pos:]


def _run_on(tmp, name: str, data: bytes, argv) -> int:
    src = tmp / "in"
    src.mkdir(parents=True)
    (src / name).write_bytes(data)
    return main([*argv, str(src), "--out", str(tmp / "out")])


@settings(max_examples=150, deadline=None)
@given(edit=_EDITS)
def test_corrupt_field_cache_exits_cleanly(clean_inputs, edit):
    # a flip inside the payload can leave a well-formed cache (finite
    # values), which detect then accepts; everything else is refused
    with tempfile.TemporaryDirectory() as d:
        rc = _run_on(Path(d), "field.wfield", _edit(clean_inputs[0].read_bytes(), edit),
                     ["detect", "--fields"])
    assert rc in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(edit=_EDITS)
def test_corrupt_pointset_csv_exits_cleanly(clean_inputs, edit):
    # an edited digit can leave a readable set (another index, seed, or a
    # box halfwidth that is still a multiple of delta), which stats accepts
    with tempfile.TemporaryDirectory() as d:
        rc = _run_on(Path(d), "points_amn.csv", _edit(clean_inputs[1].read_bytes(), edit),
                     ["stats", "--signal", "zero", "--boxes", "1", "--points"])
    assert rc in (0, 2, 3)


@pytest.mark.parametrize("edit", [
    ("truncate", 10, 1),     # inside the cache header
    ("truncate", 600, 1),    # inside the payload
    ("flip", 3, 0x20),       # the header's JSON
    ("insert", 600, 0x41),   # payload no longer whole elements
])
def test_corrupt_field_cache_is_refused(tmp_path, clean_inputs, edit):
    assert _run_on(tmp_path, "field.wfield", _edit(clean_inputs[0].read_bytes(), edit),
                   ["detect", "--fields"]) == 3


@pytest.mark.parametrize("edit", [
    ("truncate", 5, 1),      # inside the metadata
    ("flip", 1, 0x80),       # not UTF-8 any more
    ("insert", 0, 0xFF),
])
def test_corrupt_pointset_csv_is_refused(tmp_path, clean_inputs, edit):
    assert _run_on(tmp_path, "points_amn.csv", _edit(clean_inputs[1].read_bytes(), edit),
                   ["stats", "--signal", "zero", "--boxes", "1", "--points"]) in (2, 3)


def test_corrupt_headers_found_by_fuzzing_are_refused(tmp_path, clean_inputs):
    cache, points = (p.read_bytes() for p in clean_inputs)
    # a precision NumPy would parse as some other dtype string
    bad_cache = cache.replace(b'"complex128"', b'",complex128"', 1)
    assert bad_cache != cache
    assert _run_on(tmp_path / "a", "field.wfield", bad_cache, ["detect", "--fields"]) == 3
    # a non-finite grid half-width or noise level
    for i, old in enumerate((b'"L": 2.0', b'"sigma": 1.0')):
        edited = cache.replace(old, old.split(b":")[0] + b": Infinity", 1)
        assert edited != cache
        assert _run_on(tmp_path / f"inf{i}", "field.wfield", edited, ["detect", "--fields"]) == 3
    # an axis count that is a float of the right value
    edited = cache.replace(b'"n_axis": 33', b'"n_axis": 33.0', 1)
    assert edited != cache
    assert _run_on(tmp_path / "c", "field.wfield", edited, ["detect", "--fields"]) == 3
    # a spacing that reads as zero
    bad_points = points.replace(b"delta=0.125", b"delta=0.e125", 1)
    assert bad_points != points
    assert _run_on(tmp_path / "b", "points_amn.csv", bad_points,
                   ["stats", "--signal", "zero", "--boxes", "1", "--points"]) == 3
