"""Cross-resolution matching, certificates, and the matching oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from bargzeros import (
    ConfigError,
    Method,
    SignalKind,
    SignalModel,
    aggregate_failure_table,
    amn,
    detect_ladder,
    draw_noise,
    greedy_match,
    ladder_rows,
    make_grid,
    mgn,
    st,
    subsample,
    synthesize_field,
    write_consistency_csv,
)
from bargzeros import consistency
from bargzeros.consistency import ConsistencyRow, wasserstein_within
from bargzeros.grid import PointSet

D = 0.25  # low-resolution spacing used by the hand traces


def pts(*zs, delta=D, hw=2.0, method=Method.AMN):
    """PointSet from complex points on the (delta, hw) lattice."""
    w = round(hw / delta)
    kl = np.array(
        [[round(z.real / delta) + w, round(z.imag / delta) + w] for z in map(complex, zs)],
        dtype=np.int64,
    ).reshape(-1, 2)
    return PointSet(method, delta, hw, kl, seed=None)


# ---------------------------------------------------------------------------
# greedy matching


def test_greedy_single_pair():
    m = greedy_match(pts(0), pts(D), D)
    assert m.max_distortion == D
    assert m.certificate == 0


def test_greedy_exhausts_candidates():
    # the single detection goes to the first proxy zero (distance D); the
    # second proxy zero, 2*D from it, finds nothing left within 2*delta
    m = greedy_match(pts(0, 3 * D), pts(D), D)
    assert m.max_distortion == D
    assert m.certificate == 1
    # the other way round both proxy zeros are matched
    assert greedy_match(pts(0, 3 * D), pts(D, 3 * D), D).certificate == 0


def test_greedy_empty_proxy():
    m = greedy_match(pts(), pts(), D)
    assert m.certificate == 0 and m.max_distortion == 0.0
    with_extras = greedy_match(pts(), pts(0), D)
    assert with_extras.certificate == 1  # uncovered detection well inside
    assert with_extras.max_distortion == 0.0
    no_detections = greedy_match(pts(0), pts(), D)
    assert no_detections.certificate == 1 and no_detections.max_distortion == 0.0


def test_greedy_prefers_closest_detection():
    # the detection at D wins over the one at -2*D, which is left over
    # inside the collar
    m = greedy_match(pts(0), pts(-2 * D, D), D)
    assert m.max_distortion == D
    assert m.certificate == 1


def test_greedy_identical_sets_certify():
    z = pts(0, 1 + 1j, -1.5 + 0.25j)
    m = greedy_match(z, z, D)
    assert m.certificate == 0
    assert m.max_distortion == 0.0


def test_greedy_requires_shared_target_box():
    with pytest.raises(ConfigError):
        greedy_match(pts(0), pts(0, hw=1.0), D)


def test_greedy_cross_resolution_distortion_bound():
    hi = pts(0.125, -0.375 + 0.125j, delta=0.125)
    lo = pts(0.25, -0.5, delta=D)
    m = greedy_match(hi, lo, D)
    assert m.certificate == 0
    assert m.max_distortion == 0.125 <= 2 * D


# ---------------------------------------------------------------------------
# certificates


def test_certificate_extra_detection_straddles_collar():
    # target box hw 2, collar boundary at 2 - 2*delta = 1.5
    hi = pts(0)
    inside = pts(0, 1.0)  # extra detection strictly inside the collar box
    boundary = pts(0, 1.75)  # extra detection in the boundary collar
    m_in = greedy_match(hi, inside, D)
    m_out = greedy_match(hi, boundary, D)
    assert m_in.certificate == 1
    assert m_out.certificate == 0


def test_certificate_unmatched_proxy_zero():
    m = greedy_match(pts(0, 1.0), pts(0), D)
    assert m.certificate == 1


# ---------------------------------------------------------------------------
# matching oracle


def test_oracle_single_pair():
    assert wasserstein_within(pts(0), pts(D), L=2.0, theta=2 * D, bound=2 * D) == 1


def test_oracle_coverage_cardinality():
    v = pts(0, 5 * D)  # both detections well inside the collar box
    assert wasserstein_within(pts(0), v, L=2.0, theta=2 * D, bound=2 * D) == 0


def test_oracle_extra_point_in_boundary_collar_is_ignored():
    v = pts(0, 1.75)
    assert wasserstein_within(pts(0), v, L=2.0, theta=2 * D, bound=2 * D) == 1


def test_oracle_requires_every_u_matched():
    assert wasserstein_within(pts(0, 6 * D), pts(D), L=2.0, theta=2 * D, bound=2 * D) == 0


def test_oracle_empty_sets():
    assert wasserstein_within(pts(), pts(), L=2.0, theta=2 * D, bound=2 * D) == 1
    assert wasserstein_within(pts(), pts(1.75), L=2.0, theta=2 * D, bound=2 * D) == 1
    assert wasserstein_within(pts(), pts(0), L=2.0, theta=2 * D, bound=2 * D) == 0
    assert wasserstein_within(pts(0), pts(), L=2.0, theta=2 * D, bound=2 * D) == 0


def test_greedy_failure_oracle_success():
    # crossing configuration: greedy sends the first proxy to the closest
    # detection and starves the second, but a crossing assignment exists
    hi = pts(0, 0.75)
    lo = pts(-0.5, 0.25)
    m = greedy_match(hi, lo, D)
    assert m.certificate == 1
    assert wasserstein_within(hi, lo, L=2.0, theta=2 * D, bound=2 * D) == 1


@settings(max_examples=80, deadline=None)
@given(
    hi=hst.sets(hst.tuples(hst.integers(0, 16), hst.integers(0, 16)), max_size=20),
    lo=hst.sets(hst.tuples(hst.integers(0, 16), hst.integers(0, 16)), max_size=20),
)
def test_greedy_success_implies_oracle_success(hi, lo):
    z_hi = PointSet(Method.AMN, D, 2.0, np.array(sorted(hi), dtype=np.int64).reshape(-1, 2), seed=None)
    z_lo = PointSet(Method.AMN, D, 2.0, np.array(sorted(lo), dtype=np.int64).reshape(-1, 2), seed=None)
    m = greedy_match(z_hi, z_lo, D)
    assert 0.0 <= m.max_distortion <= 2 * D
    if m.certificate == 0:
        # same collar box as the greedy certificate: Omega_{hw - 2*delta}
        assert wasserstein_within(z_hi, z_lo, L=2.0, theta=2 * D, bound=2 * D) == 1


def _saturates_by_scipy(adj, rows):
    matching = maximum_bipartite_matching(csr_array(adj.astype(np.int8)), perm_type="column")
    return int((matching != -1).sum()) == adj.shape[0 if rows else 1]


@settings(max_examples=300, deadline=None)
@given(adj=hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=30)))
def test_saturation_agrees_with_scipy_matching(adj):
    for rows in (True, False):
        assert consistency._saturates(adj, rows) == _saturates_by_scipy(adj, rows)


def test_saturation_follows_a_long_augmenting_path():
    # row i takes column i first, so the last row, adjacent only to column
    # 0, is matched only along an augmenting path through all n rows: a
    # search that recursed once per edge would pass Python's recursion limit
    n = 3000
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[np.arange(n), np.arange(n)] = True
    adj[np.arange(n), np.arange(n) + 1] = True
    adj[n, 0] = True
    assert consistency._saturates(adj, rows=True)
    assert consistency._saturates(adj, rows=False)
    # without the last column the path has no free end
    assert not consistency._saturates(adj[:, :n], rows=True)
    assert _saturates_by_scipy(adj, True) and not _saturates_by_scipy(adj[:, :n], True)


# ---------------------------------------------------------------------------
# the subsampling ladder


def test_ladder_rows_match_per_level_loop():
    g = make_grid(L=2, delta=2.0**-5)
    proxy_sizes = []
    for seed in (0, 1):
        field = synthesize_field(draw_noise(g, 1.0, seed), SignalModel(SignalKind.ZERO), g)
        # the per-level loop the CLI and the acceptance fixture ran before
        proxy = amn(field, 1.0)
        want, f_lo = [], field
        for _ in range(2):
            f_lo = subsample(f_lo)
            for method, detect in zip(Method, (amn, mgn, st)):
                z_lo = detect(f_lo, 1.0)
                m = greedy_match(proxy, z_lo, f_lo.grid.delta)
                want.append(ConsistencyRow(
                    seed, method.name, g.delta, f_lo.grid.delta, len(proxy),
                    len(z_lo), m.certificate, m.max_distortion,
                ))
        assert ladder_rows(field, 1.0, [1, 2], Method, Method.AMN) == want
        assert ladder_rows(field, 1.0, iter([1, 2]), iter(Method), Method.AMN) == want
        # rows follow the levels in the order given
        assert ladder_rows(field, 1.0, [2, 1], Method, Method.AMN) == want[3:] + want[:3]
        proxy_sizes.append(len(proxy))
    assert max(proxy_sizes) > 0
    # no levels give no rows; a negative one is refused
    assert ladder_rows(field, 1.0, [], Method, Method.AMN) == []
    with pytest.raises(ConfigError, match="levels must be >= 0"):
        ladder_rows(field, 1.0, [1, -1], Method, Method.AMN)


def _sup(a, b):
    return np.maximum(np.abs(a.real[:, None] - b.real), np.abs(a.imag[:, None] - b.imag))


def _exact_within(z_hi, z_lo, bound):
    """Exact decision, by SciPy's maximum matching on the threshold graph:
    some matching within ``bound`` saturates the proxy zeros and some
    saturates the detections inside the ``2*delta_lo`` collar (so, by
    Mendelsohn-Dulmage, one matching does both)."""
    adj = _sup(z_hi.points, z_lo.points) <= bound
    inner = z_lo.in_box(z_lo.domain_halfwidth - 2.0 * z_lo.delta)
    return _saturates_by_scipy(adj, True) and _saturates_by_scipy(adj[:, inner], False)


def test_greedy_certificate_is_the_exact_decision_on_ladder_rows():
    # pure-noise ladders with many greedy failures: on each row the greedy
    # certificate is the exact decision, and on certified rows the largest
    # matched distance is the bottleneck distance, the least bound at which
    # the exact decision holds (bisected over the pairwise distances)
    g = make_grid(L=3, delta=2.0**-5)
    levels, target = [1, 2, 3], 2.0
    counts = [0, 0]
    for seed in range(60):
        field = synthesize_field(draw_noise(g, 1.0, seed), SignalModel(SignalKind.ZERO), g)
        found = detect_ladder(field, target, [0, *levels], Method)
        z_hi = found.pop((0, Method.AMN))
        rows = ladder_rows(field, target, levels, Method, Method.AMN)
        assert [(r.delta_lo, r.method) for r in rows] == [
            (2.0**j * g.delta, m.name) for j in levels for m in Method]
        for row, z_lo in zip(rows, (found[j, m] for j in levels for m in Method)):
            exact = _exact_within(z_hi, z_lo, 2.0 * z_lo.delta)
            assert row.certificate == int(not exact)
            counts[row.certificate] += 1
            if row.certificate == 0:
                dists = np.unique(_sup(z_hi.points, z_lo.points))
                dists = dists[dists <= 2.0 * z_lo.delta]
                lo, hi = 0, len(dists) - 1  # _exact_within holds at dists[hi]
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _exact_within(z_hi, z_lo, dists[mid]):
                        hi = mid
                    else:
                        lo = mid + 1
                bottleneck = dists[lo] if len(dists) and len(z_hi) else 0.0
                assert row.max_distortion == bottleneck
    # both outcomes are exercised, failures by the hundred
    assert counts[0] > 300 and counts[1] > 100


# ---------------------------------------------------------------------------
# a non-dyadic spacing


def test_certificate_at_a_non_dyadic_spacing():
    # the two points are exactly 2*delta_lo = 0.1 apart, but their float
    # distance is 0.10000000000000009: the certificate and its oracle read
    # one threshold graph, so both keep the pair
    hi = PointSet(Method.AMN, 0.025, 1.2, [[0, 48]])
    lo = PointSet(Method.AMN, 0.05, 1.2, [[2, 24]])
    assert abs(hi.points[0] - lo.points[0]) == 0.10000000000000009
    assert greedy_match(hi, lo, 0.05).certificate == 0
    assert wasserstein_within(hi, lo, 1.2, 0.1, 0.1) == 1
    # an unused detection on the collar box's edge (index 46, at 1.1) is
    # inside it, and one a step further out is in the collar
    for k, cert in ((46, 1), (47, 0)):
        extra = PointSet(Method.AMN, 0.05, 1.2, [[2, 24], [k, 24]])
        assert greedy_match(hi, extra, 0.05).certificate == cert
        assert wasserstein_within(hi, extra, 1.2, 0.1, 0.1) == 1 - cert


def _exact_in_fine_units(z_hi, z_lo, level):
    """The exact decision in integer units of the proxy's spacing: a pair
    is within ``2*delta_lo`` when its index distance is at most
    ``2 * 2**level``, and the collar is ``in_box``."""
    s = 2**level
    dk = np.abs(z_hi.kl[:, 0, None] - s * z_lo.kl[:, 0])
    dl = np.abs(z_hi.kl[:, 1, None] - s * z_lo.kl[:, 1])
    adj = np.maximum(dk, dl) <= 2 * s
    inner = z_lo.in_box(z_lo.domain_halfwidth - 2.0 * z_lo.delta)
    return _saturates_by_scipy(adj, True) and _saturates_by_scipy(adj[:, inner], False)


def test_greedy_certificate_is_the_exact_decision_at_a_non_dyadic_spacing():
    # delta_0 = 0.025 is not a power of two, so lattice distances are not
    # exact floats: on every ladder row the certificate is the exact
    # decision made in integer fine-lattice units
    g = make_grid(L=2.4, delta=0.025)
    levels, target = [1, 2, 3], 1.2
    counts = [0, 0]
    for seed in range(100):
        field = synthesize_field(draw_noise(g, 1.0, seed), SignalModel(SignalKind.ZERO), g)
        found = detect_ladder(field, target, [0, *levels], Method)
        z_hi = found.pop((0, Method.AMN))
        rows = ladder_rows(field, target, levels, Method, Method.AMN)
        keys = [(j, m) for j in levels for m in Method]
        assert [(r.delta_lo, r.method) for r in rows] == [
            (found[k].delta, k[1].name) for k in keys]
        for row, (j, m) in zip(rows, keys):
            exact = _exact_in_fine_units(z_hi, found[j, m], j)
            assert row.certificate == int(not exact)
            counts[row.certificate] += 1
    assert counts[0] > 800 and counts[1] > 40


# ---------------------------------------------------------------------------
# reports


def _rows():
    return [
        ConsistencyRow(0, "amn", 2.0 ** -8, 2.0 ** -7, 20, 20, 0, 0.001),
        ConsistencyRow(1, "amn", 2.0 ** -8, 2.0 ** -7, 21, 20, 1, 0.002),
        ConsistencyRow(0, "amn", 2.0 ** -8, 2.0 ** -6, 20, 19, 1, 0.003),
        ConsistencyRow(1, "amn", 2.0 ** -8, 2.0 ** -6, 21, 18, 1, 0.004),
        ConsistencyRow(0, "st", 2.0 ** -8, 2.0 ** -7, 20, 11, 1, 0.001),
        ConsistencyRow(1, "st", 2.0 ** -8, 2.0 ** -7, 21, 12, 1, 0.002),
    ]


def test_aggregate_failure_table():
    deltas, methods, table = aggregate_failure_table(_rows())
    assert deltas == [2.0 ** -6, 2.0 ** -7]  # coarsest first
    assert methods == ["amn", "st"]
    assert table[(2.0 ** -7, "amn")] == 0.5
    assert table[(2.0 ** -6, "amn")] == 1.0
    assert table[(2.0 ** -7, "st")] == 1.0
    assert (2.0 ** -6, "st") not in table


def test_consistency_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_consistency_csv(_rows(), path, meta={"proxy": "amn"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# proxy=amn"
    assert lines[1].startswith("seed,method,delta_hi,delta_lo,")
    assert len(lines) == 2 + len(_rows())
