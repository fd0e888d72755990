"""Grid geometry, index arithmetic, and subsampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from bargzeros import ConfigError, make_grid, subsample
from bargzeros.grid import GridSpec, Method, PointSet
from conftest import synthetic_field


def test_axis_counts():
    assert make_grid(L=1, delta=0.5).n_axis == 5  # 5x5 = 25 points
    assert make_grid(L=7, delta=2.0 ** -6).n_axis == 897
    # the window half-length is a constant; 6 is the one T make_grid accepts
    assert make_grid(L=1, delta=0.5, T=6) == make_grid(L=1, delta=0.5) == GridSpec(1, 0.5)


def test_point_count_is_odd_and_symmetric():
    g = make_grid(L=2.375, delta=2.0 ** -3)
    assert g.n_axis % 2 == 1
    ax = g.axis()
    assert ax[0] == -ax[-1] == g.corner
    assert ax[g.half_n] == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=7, delta=0.3),             # L/delta not an integer
        dict(L=1.35, delta=0.45),         # T/delta = 6/0.45 not an integer
        dict(L=4, delta=-0.25),
        dict(L=4, delta=0.0),
        dict(L=4, delta=0.75),            # delta > 1/2
        dict(L=0.5, delta=0.25),          # L < 1
        dict(L=4, delta=0.25, T=0.0),     # the window half-length is fixed at 6
        dict(L=4, delta=0.25, T=2.0),
        dict(L=4, delta=0.25, T=27.25),
        dict(L=4, delta=0.25, T=float("nan")),
    ],
)
def test_bad_configurations_rejected(kwargs):
    with pytest.raises(ConfigError):
        make_grid(**kwargs)


def test_nondyadic_but_integer_ratio_is_fine():
    g = make_grid(L=7, delta=1.0 / 3.0)
    assert g.half_n == 21


def test_index_round_trip_everywhere():
    g = make_grid(L=2.0625, delta=2.0 ** -5)
    for k in range(0, g.n_axis, 7):
        for l in range(0, g.n_axis, 11):
            assert g.index_of(g.point_of(k, l)) == (k, l)


def test_index_halfwidth_rejects_boxes_beyond_the_grid():
    g = make_grid(L=1, delta=0.25)
    assert g.index_halfwidth(1.0) == g.half_n == 4
    with pytest.raises(ConfigError, match="exceeds stored grid halfwidth 1"):
        g.index_halfwidth(1.25)


def test_index_of_rejects_off_grid_points():
    g = make_grid(L=1, delta=0.25)
    with pytest.raises(ConfigError):
        g.index_of(0.1 + 0.1j)
    with pytest.raises(ConfigError):
        g.index_of(100 + 0j)


def test_subsample_index_map():
    # 9x9 field with v(k,l) = k + 10l keeps exactly the even indices
    g = make_grid(L=1, delta=0.25)
    kk, ll = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    vals = (kk + 10.0 * ll).astype(np.complex128)
    from bargzeros import WeightedField

    f = WeightedField(grid=g, values=vals)
    s = subsample(f)
    assert s.grid.delta == 0.5
    assert s.values.shape == (5, 5)
    expect = vals[::2, ::2]
    assert (s.values == expect).all()


def test_subsample_preserves_corner_and_values_bitwise():
    g = make_grid(L=4, delta=2.0 ** -7)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((g.n_axis, g.n_axis)) + 1j * rng.standard_normal(
        (g.n_axis, g.n_axis)
    )
    from bargzeros import WeightedField

    f = WeightedField(grid=g, values=vals)
    s = subsample(f)
    assert s.grid.n_axis == 513 and f.grid.n_axis == 1025
    assert s.grid.corner == f.grid.corner
    assert s.grid.point_of(0, 0) == f.grid.point_of(0, 0) == complex(-4, -4)
    # identical bit patterns, not merely equal values
    kept = np.ascontiguousarray(f.values[::2, ::2])
    assert np.array_equiv(s.values.view(np.uint64), kept.view(np.uint64))


def test_double_subsample_is_factor_four():
    g = make_grid(L=1, delta=0.125)  # 17x17
    f = synthetic_field(g, lambda z: z + 2)
    twice = subsample(subsample(f))
    assert twice.grid.delta == 0.5
    assert (twice.values == f.values[::4, ::4]).all()


def test_subsample_refuses_odd_half_count():
    # L/delta = 5 has no lattice at twice the spacing
    with pytest.raises(ConfigError, match="not subsamplable"):
        subsample(synthetic_field(make_grid(L=1.25, delta=0.25), lambda z: z))


def test_subsample_stops_at_coarsest_spacing():
    # spacing would double past 1/2, where the lattice no longer qualifies
    g = make_grid(L=1, delta=0.5)
    f = synthetic_field(g, lambda z: z)
    with pytest.raises(ConfigError, match="not subsamplable"):
        subsample(f)


def test_pointset_sorted_and_bounded():
    ps = PointSet(Method.AMN, 0.25, 1.0, np.array([[3, 2], [0, 0], [3, 1]]))
    assert ps.kl.tolist() == [[0, 0], [3, 1], [3, 2]]
    assert ps.points[0] == complex(-1, -1)
    with pytest.raises(ConfigError):
        PointSet(Method.AMN, 0.25, 1.0, np.array([[9, 0]]))  # outside box
    # an infinite spacing would put an empty set's statistics at delta=inf
    # and a point at NaN; a repeated point, in whatever order the rows come,
    # would be counted twice, and a shared coordinate is no repeat
    for delta in (math.inf, math.nan, 0.0, -0.25):
        for kl in (np.zeros((0, 2)), [[0, 0]]):
            with pytest.raises(ConfigError, match="positive and finite"):
                PointSet(Method.AMN, delta, 1.0, kl)
    for kl in ([[3, 2], [3, 2]], [[3, 2], [0, 0], [3, 2]], [[0, 0], [3, 1], [3, 2], [3, 2]]):
        with pytest.raises(ConfigError, match="repeated"):
            PointSet(Method.AMN, 0.25, 1.0, np.array(kl))
    assert len(PointSet(Method.AMN, 0.25, 1.0, np.array([[3, 2], [2, 3], [3, 3]]))) == 3


def test_pointset_points_follow_the_indices():
    # the coordinates are derived from kl, so they cannot be passed in
    with pytest.raises(TypeError):
        PointSet(Method.AMN, 0.25, 1.0, [[1, 2]], points=[99 + 99j])
    ps = PointSet(Method.AMN, 0.25, 1.0, [[1, 2]])
    assert ps.points.tolist() == [-0.75 - 0.5j]
    assert replace(ps, kl=[[0, 0]]).points.tolist() == [-1 - 1j]


def test_pointset_min_separation():
    ps = PointSet(Method.ST, 0.25, 2.0, np.array([[0, 0], [5, 0], [5, 6]]))
    assert ps.min_separation() == 5
    assert len(PointSet(Method.ST, 0.25, 2.0, np.zeros((0, 2)))) == 0


def test_pointset_in_box():
    # stored order (0, 0), (4, 4), (6, 4), (6, 5): the points -2-2j, 0, 1
    # and 1+0.5j; the box is closed
    ps = PointSet(Method.MGN, 0.5, 2.0, np.array([[4, 4], [0, 0], [6, 4], [6, 5]]))
    assert ps.in_box(1.0).tolist() == [False, True, True, True]
    assert ps.in_box(0.5).tolist() == [False, True, False, False]
    assert ps.in_box(0.0).tolist() == [False, True, False, False]
    assert ps.in_box(2.0).all()
    with pytest.raises(ConfigError):
        ps.in_box(0.3)  # not a multiple of the spacing


@given(
    half=hst.integers(min_value=1, max_value=6),
    exp=hst.integers(min_value=1, max_value=7),
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_property(half, exp, seed):
    g = GridSpec(L=float(half), delta=2.0 ** -exp)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, g.n_axis))
    l = int(rng.integers(0, g.n_axis))
    assert g.index_of(g.point_of(k, l)) == (k, l)
