"""Cross-resolution matching, certificates, and the matching oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from bargzeros import (
    METHODS,
    ConfigError,
    ConsistencyRow,
    Method,
    SignalKind,
    SignalModel,
    aggregate_failure_table,
    amn,
    draw_noise,
    failure_rate,
    greedy_match,
    ladder_rows,
    make_grid,
    mgn,
    st,
    subsample,
    synthesize_field,
    wasserstein_within,
    write_consistency_csv,
)
from bargzeros import consistency
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


def test_failure_rate():
    assert failure_rate([0, 0, 0, 1]) == 0.25
    assert failure_rate([0] * 10) == 0.0
    assert failure_rate(np.array([1, 1])) == 1.0
    with pytest.raises(ConfigError):
        failure_rate([])
    with pytest.raises(ConfigError):
        failure_rate([0, 2])


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
            for detect in (amn, mgn, st):
                z_lo = detect(f_lo, 1.0)
                m = greedy_match(proxy, z_lo, f_lo.grid.delta)
                want.append(ConsistencyRow(
                    seed, detect.__name__.upper(), g.delta, f_lo.grid.delta, len(proxy),
                    len(z_lo), m.certificate, m.max_distortion,
                ))
        assert ladder_rows(field, 1.0, [1, 2], METHODS, "amn") == want
        # rows follow the levels in the order given
        assert ladder_rows(field, 1.0, [2, 1], METHODS, "amn") == want[3:] + want[:3]
        proxy_sizes.append(len(proxy))
    assert max(proxy_sizes) > 0
    for methods, proxy in ((["amn", "foo"], "amn"), (["amn"], "AMN")):
        with pytest.raises(ConfigError, match="unknown method"):
            ladder_rows(field, 1.0, [1], methods, proxy)


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
