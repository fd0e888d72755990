"""Intensity formulas, expected counts, and the empirical estimators."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from bargzeros import (
    ConfigError,
    Method,
    StatRow,
    WeightedField,
    count_in_box,
    covariance_probe,
    expected_count,
    make_grid,
    model_for,
    rho1,
    summary_rows,
    variance_benchmark,
    write_stats_csv,
)
from bargzeros.grid import PointSet
from bargzeros.signal import SignalKind, SignalModel

ZERO = SignalModel(SignalKind.ZERO)
TOL = 1e-10


# ---------------------------------------------------------------------------
# first intensity


def test_rho1_pure_noise_is_flat():
    for zeta in [0j, 1 + 2j, -3.5j]:
        for sigma in [1.0, 0.5, 4.0]:
            assert abs(rho1(ZERO, sigma, zeta) - 1.0 / math.pi) < TOL


def test_rho1_gauss_at_origin():
    sig = model_for(SignalKind.GAUSS, 1.0)
    assert abs(rho1(sig, 1.0, 0j) - math.exp(-1.0) / math.pi) < TOL


def test_rho1_hermite_at_origin():
    # F1(0) = 0 but the derivative contributes: (1 + |c|^2)/pi
    sig = model_for(SignalKind.HERMITE1, 1.0)
    c2 = abs(sig.coefficient) ** 2
    assert abs(rho1(sig, 1.0, 0j) - (1.0 + c2) / math.pi) < TOL


def test_rho1_far_field_recovers_flat_density():
    # the signal's influence decays like exp(-|zeta|^2)
    sig = model_for(SignalKind.GAUSS, 100.0)
    assert abs(rho1(sig, 1.0, 6 + 6j) - 1.0 / math.pi) < 1e-8


def test_rho1_noise_rescaling_matches_signal_rescaling():
    zetas = [0.3 + 0.1j, 1 - 1j, 2j]
    for sigma in [0.5, 2.0]:
        a = model_for(SignalKind.GAUSS, 3.0)
        b = model_for(SignalKind.GAUSS, 3.0 / sigma)
        for z in zetas:
            assert rho1(a, sigma, z) == pytest.approx(rho1(b, 1.0, z), rel=1e-12)


def test_rho1_vectorized():
    sig = model_for(SignalKind.HERMITE1, 2.0)
    zg = np.array([[0j, 1j], [1 + 0j, 1 + 1j]])
    out = rho1(sig, 1.0, zg)
    assert out.shape == (2, 2)
    assert out[0, 0] == pytest.approx(rho1(sig, 1.0, 0j), rel=1e-14)


def test_rho1_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        rho1(ZERO, 0.0, 0j)


# ---------------------------------------------------------------------------
# expected counts


def test_expected_count_pure_noise_is_area_over_pi():
    assert abs(expected_count(ZERO, 1.0, 6.0) - 144.0 / math.pi) < 1e-6


def test_expected_count_agrees_with_adaptive_quadrature():
    sig = model_for(SignalKind.GAUSS, 1.0)
    mid = expected_count(sig, 1.0, 2.0)
    ref, err = dblquad(
        lambda y, x: rho1(sig, 1.0, complex(x, y)), -2, 2, -2, 2, epsabs=1e-9
    )
    assert err < 1e-6
    assert abs(ref - 5.05208387210863) < 1e-6
    assert abs(mid - ref) < 1e-4


@pytest.mark.parametrize("kind", [SignalKind.GAUSS, SignalKind.HERMITE1])
def test_expected_count_quadrature_self_convergence(kind):
    sig = model_for(kind, 1.0)
    a = expected_count(sig, 1.0, 6.0, step=1.0 / 64)
    b = expected_count(sig, 1.0, 6.0, step=1.0 / 128)
    assert abs(a - b) < 1e-6


def test_expected_count_strong_signal_spot_check():
    # steep-integrand regime: one refinement moves the value by < 1e-4
    sig = model_for(SignalKind.GAUSS, 100.0)
    a = expected_count(sig, 1.0, 2.0, step=1.0 / 64)
    b = expected_count(sig, 1.0, 2.0, step=1.0 / 128)
    assert abs(a - b) < 1e-4


def test_expected_count_validation():
    assert expected_count(ZERO, 1.0, 0.0) == 0.0
    with pytest.raises(ConfigError):
        expected_count(ZERO, 1.0, -1.0)
    with pytest.raises(ConfigError):
        expected_count(ZERO, 1.0, 1.0, step=0.0)
    # non-finite sizes, which once ended in ValueError or OverflowError from
    # round(), or (step=inf) in a silent one-point rule
    for halfwidth, step in ((math.nan, None), (math.inf, None), (1.0, math.nan),
                            (1.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ConfigError):
            expected_count(ZERO, 1.0, halfwidth, step=step)


# ---------------------------------------------------------------------------
# count estimators


def _toy_points():
    # domain halfwidth 2 at spacing 1/4: indices 0..16, centre at (8, 8)
    kl = np.array([[8, 8], [10, 8], [16, 16]])
    return PointSet(Method.AMN, 0.25, 2.0, kl, seed=1)


def test_count_in_box():
    ps = _toy_points()
    assert count_in_box(ps, 2.0) == 3
    assert count_in_box(ps, 1.0) == 2  # drops the far corner
    assert count_in_box(ps, 0.25) == 1
    with pytest.raises(ConfigError):
        count_in_box(ps, 3.0)


def test_count_in_box_boundary_is_closed():
    ps = _toy_points()
    # (10, 8) sits exactly on the boundary of the halfwidth-1/2 box
    assert count_in_box(ps, 0.5) == 2


def _one_set_means(estimator: str) -> list[float]:
    rows = summary_rows([_toy_points()], ZERO, 1.0, [1.0, 2.0])
    assert all(r.R == 1 and r.std == r.se == 0.0 for r in rows)
    return [r.mean for r in rows if r.estimator == f"{estimator}[AMN]"]


def test_intensity_estimator():
    # 2 points in the box of half-width 1 (area 4), 3 in that of half-width 2
    assert _one_set_means("intensity") == pytest.approx([2.0 / 4.0, 3.0 / 16.0])


def test_count_error_estimator():
    # pure noise expects area/pi = 4/pi zeros in the box of half-width 1
    want = (2.0 - 4.0 / math.pi) / 4.0
    assert _one_set_means("count_error")[0] == pytest.approx(want, rel=1e-9)


def test_summary_rows():
    a = _toy_points()
    b = PointSet(Method.AMN, 0.25, 2.0, np.array([[8, 8]]), seed=2)
    rows = summary_rows([a, b], ZERO, 1.0, [1.0, 2.0])
    assert [(r.estimator, r.halfwidth) for r in rows] == [
        ("intensity[AMN]", 1.0), ("count_error[AMN]", 1.0),
        ("intensity[AMN]", 2.0), ("count_error[AMN]", 2.0),
    ]
    for r in rows:
        w = r.halfwidth
        shift = 0.0 if r.estimator.startswith("intensity") else expected_count(ZERO, 1.0, w)
        vals = [(count_in_box(p, w) - shift) / (2.0 * w) ** 2 for p in (a, b)]
        assert (r.signal, r.delta, r.R) == ("zero", 0.25, 2)
        assert r.mean == pytest.approx(np.mean(vals), rel=1e-12)
        assert r.std == pytest.approx(np.std(vals, ddof=1), rel=1e-12)
        assert r.se == pytest.approx(r.std / math.sqrt(2), rel=1e-12)
    with pytest.raises(ConfigError):
        summary_rows([], ZERO, 1.0, [1.0])
    with pytest.raises(ConfigError):  # one method and spacing per summary
        summary_rows([a, PointSet(Method.MGN, 0.25, 2.0, np.array([[8, 8]]))], ZERO, 1.0, [1.0])


# ---------------------------------------------------------------------------
# benchmark constant and covariance probe


def test_variance_benchmark_reference_box():
    assert variance_benchmark() == pytest.approx(0.01165, abs=1e-12)
    assert variance_benchmark(144.0) == pytest.approx(0.01165, abs=1e-12)


def test_variance_benchmark_area_scaling():
    assert variance_benchmark(36.0) == pytest.approx(0.01165 * 2.0, rel=1e-12)
    assert variance_benchmark(4 * 144.0) == pytest.approx(0.01165 / 2.0, rel=1e-12)
    with pytest.raises(ConfigError):
        variance_benchmark(0.0)


def test_covariance_probe_matches_numpy():
    g = make_grid(L=1, delta=0.25)
    rng = np.random.default_rng(8)
    fields = []
    for _ in range(12):
        vals = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        fields.append(WeightedField(grid=g, values=vals))
    z, w = 0.25 + 0j, -0.5 + 0.75j
    kz, kw = g.index_of(z), g.index_of(w)
    zs = np.array([f.values[kz] for f in fields])
    ws = np.array([f.values[kw] for f in fields])
    want = np.mean(zs * np.conj(ws)) - zs.mean() * np.conj(ws.mean())
    assert covariance_probe(fields, z, w) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ConfigError):
        covariance_probe(fields[:1], z, w)


def test_stats_csv_smoke(tmp_path):
    rows = [
        StatRow("intensity[AMN]", "zero", 0.0, 1.0, 0.25, 1.0, 2, 0.3, 0.01, 0.007),
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path, meta={"config": "deadbeef"})
    text = path.read_text()
    assert text.startswith("# config=deadbeef\n")
    assert "intensity[AMN]" in text
    assert text.count("\n") == 3  # meta + header + one row
