"""End-to-end acceptance runs for the whole pipeline.

Seven checks, each printing a single ``ACCEPTANCE n (...): PASS/FAIL``
line even under captured output before asserting its conditions
(:func:`_accept`):

1. covariance structure of the simulated weighted field,
2. pointwise zero intensity of the pure-noise model against 1/pi,
3. count-error consistency against the closed-form expected counts,
4. cross-resolution failure-probability table,
5. off-grid refinement certifying detected zeros,
6. algorithmic invariants (separation, scale invariance, determinism),
7. closed-form identities to 1e-10.

The Monte-Carlo checks use fixed seed ranges, so every run sees the same
realizations; the whole module takes a few minutes on one core.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bargzeros import (
    Method,
    PointSet,
    SignalKind,
    SignalModel,
    WeightedField,
    aggregate_failure_table,
    amn,
    bargmann_closed_form,
    detect_ladder,
    draw_noise,
    greedy_match,
    ladder_rows,
    make_grid,
    model_for,
    refine_zero,
    rho1,
    sieve,
    summary_rows,
    synthesize_field,
    variance_benchmark,
    write_field,
    write_pointset_csv,
    zero_noise,
)
from bargzeros.consistency import wasserstein_within
from bargzeros.signal import sample_signal
from bargzeros.stats import StatRow

from conftest import covariance_probe

SIGMA = 1.0
ZERO = SignalModel(SignalKind.ZERO)


def _accept(capsys, num: int, label: str, criteria) -> None:
    """Print the ``ACCEPTANCE num`` line, PASS when every one of the
    (condition, failure message) pairs ``criteria`` holds, then assert each
    in turn."""
    criteria = list(criteria)
    ok = all(cond for cond, _ in criteria)
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    for cond, message in criteria:
        assert cond, message


def _sup(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        np.abs(a.real[:, None] - b.real[None, :]),
        np.abs(a.imag[:, None] - b.imag[None, :]),
    )


# ---------------------------------------------------------------------------
# 1. covariance of the weighted field


def test_weighted_field_covariance(capsys):
    g = make_grid(L=2, delta=2.0**-5)
    fields = [synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g) for seed in range(2000)]

    probes = [0j, 0.5 + 0j, -0.5 + 0j, 0.5j, -0.5j,
              0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j, -0.5 + 0.5j]
    variances = {z: covariance_probe(fields, z, z).real for z in probes}
    pairs = [(0j, 0.5 + 0j), (-0.5 + 0j, 0.5 + 0j), (-1 + 0j, 1 + 0j)]
    covs = {(z, w): abs(covariance_probe(fields, z, w)) for z, w in pairs}
    wants = {(z, w): math.exp(-abs(z - w) ** 2 / 2.0) for z, w in pairs}

    _accept(capsys, 1, "weighted-field covariance", [
        *((0.9 <= v <= 1.1, f"variance at {z} is {v:.4f}") for z, v in variances.items()),
        *((abs(c - wants[z, w]) <= 0.05,
           f"|cov({z},{w})| = {c:.4f}, expected {wants[z, w]:.4f} +- 0.05")
          for (z, w), c in covs.items()),
    ])


# ---------------------------------------------------------------------------
# 2. pointwise intensity of the pure-noise zero set


@pytest.fixture(scope="module")
def intensity_runs():
    """Detections in the box of half-width 4 for seeds 0..999, per method.

    The first 200 seeds form the comparison sample; the full thousand
    validate the area-scaled std benchmark before it is used as a
    tolerance.  Shared with the failure-table check below.
    """
    g = make_grid(L=5, delta=2.0**-6)
    sets = {m.value: [] for m in Method}
    for seed in range(1000):
        f = synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g)
        for (_, m), ps in detect_ladder(f, 4.0, [0], Method).items():
            sets[m.value].append(ps)
    return sets


def _intensity(sets) -> StatRow:
    """The intensity row (mean, std, se) of the box of half-width 4."""
    return summary_rows(sets, ZERO, SIGMA, [4.0])[0]


def _intensity_protocol(row: StatRow, target_std: float) -> tuple[bool, bool]:
    """(mean criterion, std criterion) for one method's intensity sample."""
    return (abs(row.mean - 1.0 / math.pi) <= 3.0 * row.se,
            0.7 * target_std <= row.std <= 1.3 * target_std)


def test_pointwise_intensity(intensity_runs, capsys):
    target = variance_benchmark(area=64.0)

    # the area-scaling heuristic must hold in a direct long run before the
    # benchmark may serve as a tolerance for the shorter protocol sample
    long_run = {m: _intensity(intensity_runs[m]) for m in ("amn", "mgn")}
    validated = all(_intensity_protocol(r, target)[1] for r in long_run.values())

    sample = {m: _intensity(sets[:200]) for m, sets in intensity_runs.items()}
    results = {m: _intensity_protocol(r, target) for m, r in sample.items()}
    criteria = [(validated, (
        f"R=1000 std validation failed: amn {long_run['amn'].std:.5f}, "
        f"mgn {long_run['mgn'].std:.5f} vs benchmark {target:.5f}"
    ))]
    for m in ("amn", "mgn"):
        mean_ok, std_ok = results[m]
        criteria += [(mean_ok, f"{m}: |mean - 1/pi| exceeds 3*SE"),
                     (std_ok, f"{m}: std {sample[m].std:.5f} outside +-30% of {target:.5f}")]
    criteria.append((not all(results["st"]), "st unexpectedly satisfies both intensity criteria"))
    _accept(capsys, 2, "pointwise intensity vs 1/pi", criteria)


# ---------------------------------------------------------------------------
# 3. count errors against expected counts


def test_count_error_consistency(capsys):
    g = make_grid(L=4, delta=2.0**-7)
    boxes = (1.0, 2.0, 3.0)
    models = {
        (kind, A): model_for(kind, A)
        for kind in (SignalKind.GAUSS, SignalKind.HERMITE1)
        for A in (1.0, 100.0)
    }
    means = {key: synthesize_field(zero_noise(g), m, g).values for key, m in models.items()}

    sets: dict[tuple, list] = {}
    for seed in range(100):
        noise = synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g)
        for key in models:
            f = WeightedField(grid=g, values=noise.values + means[key])
            for (_, m), ps in detect_ladder(f, 3.0, [0], Method).items():
                sets.setdefault((key, m.value), []).append(ps)

    # the threshold detector misses the deterministic zero of the strong
    # first-Hermite signal, so its count error dwarfs the neighbourhood
    # detectors' on at least one box
    strong = (SignalKind.HERMITE1, 100.0)
    pairs = [(key, name) for key in models for name in ("amn", "mgn")] + [(strong, "st")]
    # (mean, se) of the count error per (model, method) and box
    beta = {
        (key, name, r.halfwidth): (r.mean, r.se)
        for key, name in pairs
        for r in summary_rows(sets[(key, name)], models[key], SIGMA, boxes)
        if r.estimator.startswith("count_error")
    }

    criteria = []
    for key in models:
        for name in ("amn", "mgn"):
            for w in boxes:
                mean, se = beta[(key, name, w)]
                criteria.append((abs(mean) <= max(0.02, 3.0 * se), (
                    f"{key[0].value} A={key[1]:g} {name} box {w}: "
                    f"beta {mean:+.4f} exceeds max(0.02, {3 * se:.4f})"
                )))
    st_vs_amn = any(
        abs(beta[(strong, "st", w)][0]) >= 3.0 * abs(beta[(strong, "amn", w)][0]) for w in boxes
    )
    criteria.append((st_vs_amn, "st count error never dominates amn's for hermite1 A=100"))
    _accept(capsys, 3, "count-error consistency", criteria)


# ---------------------------------------------------------------------------
# 4. cross-resolution failure table


@pytest.fixture(scope="module")
def ladder_runs():
    """Failure rates per signal tag over 200 seeds, as the aggregate table
    ``(coarse spacing, method tag) -> rate``.

    Each realization is synthesized once at spacing 2^-8 and subsampled
    down the ladder; the fine-grid neighbourhood detections serve as the
    proxy truth for every coarser run of the same realization.
    """
    g = make_grid(L=3, delta=2.0**-8)
    gauss1 = model_for(SignalKind.GAUSS, 1.0)
    mean_gauss = synthesize_field(zero_noise(g), gauss1, g).values

    rows: dict[str, list] = {"zero": [], "gauss1": []}
    for seed in range(200):
        noise = synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g)
        for tag, vals in (("zero", noise.values), ("gauss1", noise.values + mean_gauss)):
            f_hi = WeightedField(grid=g, values=vals)
            rows[tag] += ladder_rows(f_hi, 2.0, [1, 2, 3], Method, Method.AMN)
    return {tag: aggregate_failure_table(r)[2] for tag, r in rows.items()}


def test_failure_probability_table(ladder_runs, intensity_runs, capsys):
    ladder = (2.0**-5, 2.0**-6, 2.0**-7)  # coarse to fine
    # (signal tag, method token) -> failure rates, coarse to fine
    table = {
        (tag, m.value): [ladder_runs[tag][d, m.name] for d in ladder]
        for tag in ("zero", "gauss1")
        for m in Method
    }
    monotone = all(
        table[tag, name][i] >= table[tag, name][i + 1]
        for tag in ("zero", "gauss1")
        for name in ("amn", "mgn")
        for i in range(len(ladder) - 1)
    )
    fine_ok = all(table[tag, "amn"][-1] <= 0.05 for tag in ("zero", "gauss1"))

    target = variance_benchmark(area=64.0)
    st_row = _intensity(intensity_runs["st"][:200])
    st_fails_intensity = not all(_intensity_protocol(st_row, target))
    st_worse = all(
        table[tag, "st"][-1] >= 5.0 * table[tag, "amn"][-1]
        for tag in ("zero", "gauss1")
    )
    _accept(capsys, 4, "failure-probability table", [
        (monotone, f"failure rates not monotone along the ladder: {table}"),
        (fine_ok, f"amn failure rate above 5% at the finest spacing: {table}"),
        (st_worse or st_fails_intensity, f"st neither worse on the ladder nor off-target: {table}"),
    ])


# ---------------------------------------------------------------------------
# 5. refinement certifies detected zeros


def test_refinement_certifies_detections(capsys):
    g = make_grid(L=3, delta=2.0**-7)
    radius = 2.0 * g.delta
    good = total = 0
    for seed in range(50):
        f = synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g)
        for p in amn(f, 2.0).points:
            loc, mag = refine_zero(f.source, complex(p), radius, 4)
            moved = max(abs(loc.real - p.real), abs(loc.imag - p.imag))
            good += mag < 1e-2 and moved <= radius
            total += 1
    _accept(capsys, 5, "refinement certifies detections", [
        (good / total >= 0.99, f"only {good}/{total} detections refine to near-zeros"),
    ])


# ---------------------------------------------------------------------------
# 6. algorithmic invariants


def test_algorithmic_invariants(capsys, tmp_path):
    g = make_grid(L=2, delta=2.0**-5)
    criteria = []

    # separation and scale invariance on a couple of realizations
    nonvacuous = 0
    for seed in (3, 11):
        f = synthesize_field(draw_noise(g, SIGMA, seed), ZERO, g)
        base = detect_ladder(f, 1.5, [0, 1], Method)
        for m in (Method.AMN, Method.ST):
            pts = base[0, m].points
            if len(pts) > 1:
                d = _sup(pts, pts)
                np.fill_diagonal(d, np.inf)
                criteria.append((d.min() >= 5.0 * g.delta - 1e-12, f"{m.value} output not separated"))
        for c in (1e-3, 1.0, 1e3):
            scaled = WeightedField(grid=g, values=f.values * c)
            found = detect_ladder(scaled, 1.5, [0], (Method.AMN, Method.MGN))
            for m in (Method.AMN, Method.MGN):
                criteria.append((np.array_equal(found[0, m].kl, base[0, m].kl),
                                 f"{m.value} output changed under scaling by {c}"))

        # sieving a dense candidate set, the box points at or below the 10%
        # magnitude quantile: kept points separated, dropped ones covered
        w = g.index_halfwidth(1.5)
        rows = slice(g.half_n - w, g.half_n + w + 1)
        box = np.abs(f.values[rows, rows])
        cand = PointSet(Method.ST, g.delta, 1.5, np.argwhere(box <= np.quantile(box, 0.1)))
        kept = sieve(cand, f)
        cover = _sup(cand.points, kept.points)
        criteria.append(((cover.min(axis=1) <= 4.0 * g.delta + 1e-12).all(),
                         "sieve dropped an uncovered point"))

        # greedy certificate is sound for the exact matching oracle
        hi, lo = base[0, Method.AMN], base[1, Method.AMN]
        match = greedy_match(hi, lo, lo.delta)
        if match.certificate == 0:
            nonvacuous += 1
            oracle = wasserstein_within(hi, lo, 1.5, 2.0 * lo.delta, 2.0 * lo.delta)
            criteria.append((oracle == 1, "greedy certificate not confirmed by matching oracle"))
    criteria.append((nonvacuous, "no certified match found; soundness check never exercised"))

    # bit-identical reruns end to end: noise, synthesis, detection, files
    runs = []
    for _ in range(2):
        f = synthesize_field(draw_noise(g, SIGMA, 7), ZERO, g)
        pts = amn(f, 1.5)
        field_path = tmp_path / f"run{len(runs)}.wfield"
        csv_path = tmp_path / f"run{len(runs)}.csv"
        write_field(f, field_path)
        write_pointset_csv(pts, csv_path)
        runs.append((f.values.tobytes(), pts.kl.tobytes(),
                     field_path.read_bytes(), csv_path.read_bytes()))
    criteria.append((runs[0] == runs[1], "identical seeds produced different artifacts"))
    _accept(capsys, 6, "algorithmic invariants", criteria)


# ---------------------------------------------------------------------------
# 7. closed-form identities


def test_closed_form_identities(capsys):
    tol = 1e-10

    # intensity of the pure-noise zero set is flat at 1/pi
    zs = np.array([0j, 0.3 - 0.2j, 1 + 1j, -2.5 + 0.1j])
    flat = np.all(np.abs(rho1(ZERO, SIGMA, zs) - 1.0 / math.pi) < tol)

    # unit-amplitude gaussian: intensity dips to e^-1/pi at the origin
    gauss1 = model_for(SignalKind.GAUSS, 1.0)
    gauss_dip = abs(rho1(gauss1, SIGMA, 0j) - math.exp(-1.0) / math.pi)

    # first Hermite with coefficient of modulus |c| = |0.7 - 0.3j|, amplitude
    # |c|*exp(-1/2): (1 + |c|^2)/pi at the origin
    c = abs(0.7 - 0.3j)
    herm = SignalModel(SignalKind.HERMITE1, c * math.exp(-0.5))
    herm_peak = abs(rho1(herm, SIGMA, 0j) - (1.0 + c ** 2) / math.pi)

    # closed-form transforms against the defining integral
    def transform_by_quadrature(model: SignalModel, z: complex) -> complex:
        def integrand(t: float, part) -> float:
            return part(sample_signal(model, t) * np.exp(-t * t + 2.0 * t * z))

        re = quad(integrand, -12.0, 12.0, args=(np.real,), epsabs=1e-13, epsrel=1e-13)[0]
        im = quad(integrand, -12.0, 12.0, args=(np.imag,), epsabs=1e-13, epsrel=1e-13)[0]
        return math.sqrt(2.0 / math.pi) * np.exp(-z * z / 2.0) * complex(re, im)

    pair_err = 0.0
    for model in (ZERO, SignalModel(SignalKind.GAUSS, abs(1.3 - 0.4j)), herm):
        for z in (0j, 0.5 + 0j, -0.3 + 0.7j, 1.2 - 0.9j):
            got = bargmann_closed_form(model, z)
            pair_err = max(pair_err, abs(got - transform_by_quadrature(model, z)))

    # peak weighted amplitude of the first Hermite mode sits at exp(-1/2)
    scale_err = abs(model_for(SignalKind.HERMITE1, 1.0).coefficient - math.exp(0.5))
    gauss_scale_err = abs(model_for(SignalKind.GAUSS, 1.0).coefficient - 1.0)

    _accept(capsys, 7, "closed-form identities", [
        (flat, "pure-noise intensity is not 1/pi"),
        (gauss_dip < tol, f"gaussian A=1 intensity at 0 is off e^-1/pi by {gauss_dip:.2e}"),
        (herm_peak < tol, f"hermite1 intensity at 0 is off (1+|c|^2)/pi by {herm_peak:.2e}"),
        (pair_err < tol, f"transform mismatch up to {pair_err:.2e}"),
        (scale_err < tol, f"hermite1 intensity scale is off exp(1/2) by {scale_err:.2e}"),
        (gauss_scale_err < tol, f"gaussian intensity scale is off 1 by {gauss_scale_err:.2e}"),
    ])
