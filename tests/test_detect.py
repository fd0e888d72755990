"""Detectors: margins, selection, sieving, and their documented failure modes."""

import cmath
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from bargzeros import detect
from bargzeros import (
    ConfigError,
    DataError,
    Method,
    WeightedField,
    amn,
    amn_select,
    detect_ladder,
    draw_noise,
    make_grid,
    mgn,
    read_pointset_csv,
    sieve,
    st,
    synthesize_field,
    write_pointset_csv,
)
from bargzeros.detect import _margins
from bargzeros.grid import PointSet, ladder
from bargzeros.signal import SignalKind, SignalModel, parse_signal

from conftest import synthetic_field

ZERO_SIGNAL = SignalModel(SignalKind.ZERO)
D16 = 2.0 ** -4


def _margin(field, k, l):
    # the detector's margin at one grid index
    return float(_margins(field, np.array([k]), np.array([l]))[0])


# ---------------------------------------------------------------------------
# comparison margin


def test_margin_linear_field_at_origin():
    # first branch vanishes at the zero, so the margin is the weighted
    # finite difference: 0.75 * |exp(d^2/2) * d*exp(-d^2/2) - 0| = 0.75 * d
    g = make_grid(L=1, delta=D16)
    f = synthetic_field(g, lambda z: z)
    k0 = g.index_of(0j)
    eta = _margin(f, *k0)
    assert eta == pytest.approx(0.75 * D16, abs=1e-15)
    assert eta == pytest.approx(0.0468, abs=1e-3)


def test_margin_constant_field_cancellation():
    # the phase factor undoes the weight shift exactly, so the difference
    # branch is 0 and the margin equals the centre magnitude
    c = 0.7 - 0.2j
    g = make_grid(L=1, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, c))
    k0 = g.index_of(0j)
    assert _margin(f, *k0) == pytest.approx(abs(c), abs=1e-15)


def test_margin_matches_hand_formula_at_random_points():
    g = make_grid(L=1, delta=D16)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((g.n_axis, g.n_axis)) + 1j * rng.standard_normal(
        (g.n_axis, g.n_axis)
    )
    f = WeightedField(grid=g, values=vals)
    for k, l in rng.integers(0, g.n_axis - 1, size=(20, 2)):
        lam = g.point_of(int(k), int(l))
        phase = cmath.exp(0.5 * g.delta * (2j * lam.imag + g.delta))
        want = max(abs(vals[k, l]), 0.75 * abs(phase * vals[k + 1, l] - vals[k, l]))
        assert _margin(f, int(k), int(l)) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# AMN selection and the full detector


def test_amn_linear_field_finds_origin():
    g = make_grid(L=2, delta=D16)
    f = synthetic_field(g, lambda z: z)
    selected = amn_select(f, 1.0)
    assert 0j in set(map(complex, selected.points))
    full = amn(f, 1.0)
    assert list(map(complex, full.points)) == [0j]


def test_amn_constant_field_empty():
    g = make_grid(L=3, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, 0.3 + 0.4j))
    assert len(amn_select(f, 2.0)) == 0
    assert len(amn(f, 2.0)) == 0


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_amn_and_mgn_scale_invariance(c):
    g = make_grid(L=2, delta=2.0 ** -5)
    base = synthesize_field(draw_noise(g, 1.0, 17), ZERO_SIGNAL, g)
    scaled = WeightedField(grid=g, values=c * base.values)
    for detector in (amn, mgn):
        a, b = detector(base, 1.0), detector(scaled, 1.0)
        assert np.array_equal(a.kl, b.kl)


def test_amn_select_matches_brute_force():
    # independent, naive re-derivation of the selection rule
    g = make_grid(L=1, delta=D16)
    target = 0.875  # leaves exactly the two required rings on a 33x33 grid
    w = g.index_halfwidth(target)
    off = g.half_n - w
    ring = [
        (p, q) for p in range(-2, 3) for q in range(-2, 3) if max(abs(p), abs(q)) == 2
    ]
    for seed in range(3):
        f = synthesize_field(draw_noise(g, 1.0, seed), ZERO_SIGNAL, g)
        G = np.abs(f.values)
        brute = []
        for k in range(off, off + 2 * w + 1):
            for l in range(off, off + 2 * w + 1):
                lam = g.point_of(k, l)
                phase = cmath.exp(0.5 * g.delta * (2j * lam.imag + g.delta))
                eta = max(G[k, l], 0.75 * abs(phase * f.values[k + 1, l] - f.values[k, l]))
                if all(G[k + p, l + q] >= G[k, l] + eta for p, q in ring):
                    brute.append((k - off, l - off))
        got = amn_select(f, target)
        assert [tuple(r) for r in got.kl] == brute


def _offset_loop_amn_select(field, target):
    """Selection oracle: one full-box comparison per ring offset against
    the full-box margin, as the detector computed it before it was blocked."""
    g = field.grid
    w = g.index_halfwidth(target)
    lo = g.half_n - w
    sl = slice(lo, lo + 2 * w + 1)
    G, V = np.abs(field.values), field.values
    Gc = G[sl, sl]
    phase = np.exp(0.5 * g.delta * (2j * g.axis()[sl] + g.delta))[None, :]
    eta = np.maximum(Gc, 0.75 * np.abs(phase * V[lo + 1 : lo + 2 * w + 2, sl] - V[sl, sl]))
    bar = Gc + eta
    keep = np.ones(Gc.shape, dtype=bool)
    for p in range(-2, 3):
        for q in range(-2, 3):
            if max(abs(p), abs(q)) == 2:
                ring = G[lo + p : lo + p + 2 * w + 1, lo + q : lo + q + 2 * w + 1]
                keep &= ring >= bar
    return np.argwhere(keep)


def _offset_loop_mgn(field, target):
    """MGN oracle: one full-box comparison per immediate neighbour."""
    g = field.grid
    w = g.index_halfwidth(target)
    lo = g.half_n - w
    G = np.abs(field.values)
    Gc = G[lo : lo + 2 * w + 1, lo : lo + 2 * w + 1]
    keep = np.ones(Gc.shape, dtype=bool)
    for p in (-1, 0, 1):
        for q in (-1, 0, 1):
            if (p, q) != (0, 0):
                keep &= Gc <= G[lo + p : lo + p + 2 * w + 1, lo + q : lo + q + 2 * w + 1]
    return np.argwhere(keep)


def _assert_matches_offset_loops(field, target):
    assert np.array_equal(amn_select(field, target).kl, _offset_loop_amn_select(field, target))
    assert np.array_equal(mgn(field, target).kl, _offset_loop_mgn(field, target))


@pytest.mark.parametrize("seed, signal", [(0, "zero"), (1, "gauss:A=1")])
def test_blocked_selection_matches_offset_loops_on_ladder(seed, signal):
    # 513 target rows at level 0, so the last row block takes the one row
    # past 4*128 (and 257, 129 rows at levels 1, 2); every level down to
    # spacing 1/2 is checked
    g = make_grid(L=3, delta=2.0 ** -7)
    f = synthesize_field(draw_noise(g, 1.0, seed), parse_signal(signal), g)
    assert 2 * g.index_halfwidth(2.0) + 1 == 513
    for fld in ladder(f, 6).values():
        _assert_matches_offset_loops(fld, 2.0)


def test_row_blocks_take_a_one_row_tail_into_the_last():
    # a dyadic box at L=3 has 1 (mod 128) rows: no block of one row is
    # screened on its own, and every row is in exactly one block
    V = np.zeros((1100, 1100), dtype=np.complex128)
    for m, want in ((1, [1]), (2, [2]), (128, [128]), (129, [129]), (130, [128, 2]),
                    (257, [128, 129]), (1025, [128] * 7 + [129])):
        blocks = list(detect._blocks(V, 3, m, 2))
        assert [rows.shape[0] - 4 for _, rows in blocks] == want
        assert [r0 for r0, _ in blocks] == [128 * i for i in range(len(want))]


def test_blocked_selection_on_a_one_point_box():
    g = make_grid(L=1, delta=D16)
    noise = synthesize_field(draw_noise(g, 1.0, 4), ZERO_SIGNAL, g)
    _assert_matches_offset_loops(synthetic_field(g, lambda z: z), 0.0)
    # the noise field and its subsampled levels 1-3 (the deepest that keeps
    # two rings around the centre)
    for f in ladder(noise, 3).values():
        _assert_matches_offset_loops(f, 0.0)
    assert [tuple(r) for r in amn_select(synthetic_field(g, lambda z: z), 0.0).kl] == [(0, 0)]


def test_amn_select_keeps_exact_ties():
    # centre 1 with equal inner neighbours, so the margin is the centre
    # magnitude and the bar is exactly 2: a ring of 2s passes (ring == 2*Gc
    # == Gc + eta), one ring sample just below 2 fails
    g = make_grid(L=1, delta=2.0 ** -2)
    vals = np.full((g.n_axis, g.n_axis), 2.0 + 0j)
    c = g.half_n
    vals[c - 1 : c + 2, c - 1 : c + 2] = 1.0
    f = WeightedField(grid=g, values=vals.copy())
    assert _margin(f, c, c) == 1.0
    assert [tuple(r) for r in amn_select(f, 0.0).kl] == [(0, 0)]
    _assert_matches_offset_loops(f, 0.0)
    vals[c + 2, c - 1] = np.nextafter(2.0, 0.0)
    f = WeightedField(grid=g, values=vals)
    assert len(amn_select(f, 0.0)) == 0
    _assert_matches_offset_loops(f, 0.0)


def _tied_well():
    """Values of 2 around a 3x3 well of 1s at the grid centre ``c``: the
    centre's margin is its own magnitude, so its bar ``Gc + eta`` is exactly
    2 and every ring sample ties with ``2*Gc``; its 8 immediate neighbours
    tie with it."""
    g = make_grid(L=1, delta=2.0 ** -2)
    vals = np.full((g.n_axis, g.n_axis), 2.0 + 0j)
    c = g.half_n
    vals[c - 1 : c + 2, c - 1 : c + 2] = 1.0
    return g, vals, c


_RING_OFFSETS = [(p, q) for p in range(-2, 3) for q in range(-2, 3) if max(abs(p), abs(q)) == 2]
_NEIGHBOURS = [(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1) if (p, q) != (0, 0)]


@pytest.mark.parametrize("p, q", _RING_OFFSETS)
def test_amn_select_rejects_one_low_ring_sample(p, q):
    # only ring sample (p, q) is below 2*Gc: the screen reads one ring
    # sample, the exact test must catch each of the other 15
    g, vals, c = _tied_well()
    assert [tuple(r) for r in amn_select(WeightedField(grid=g, values=vals.copy()), 0.0).kl] == [
        (0, 0)
    ]
    vals[c + p, c + q] = np.nextafter(2.0, 0.0)
    f = WeightedField(grid=g, values=vals)
    assert len(amn_select(f, 0.0)) == 0
    _assert_matches_offset_loops(f, 0.0)


@pytest.mark.parametrize("p, q", _NEIGHBOURS)
def test_mgn_rejects_one_lower_neighbour(p, q):
    # only neighbour (p, q) is below the centre: the screen reads the two
    # row neighbours, the exact test must catch each of the other 6
    g, vals, c = _tied_well()
    assert [tuple(r) for r in mgn(WeightedField(grid=g, values=vals.copy()), 0.0).kl] == [(0, 0)]
    vals[c + p, c + q] = np.nextafter(1.0, 0.0)
    f = WeightedField(grid=g, values=vals)
    assert len(mgn(f, 0.0)) == 0
    _assert_matches_offset_loops(f, 0.0)


def test_selection_where_most_points_pass_the_screens():
    # magnitudes double every second row and are constant along rows, so
    # 2*Gc ties with the ring sample two rows down and each point with its
    # row neighbours: both screens pass everywhere but on the wells, and
    # the exact tests do all the work.  Wells of tied samples, 8 or 4
    # times smaller than their row, are AMN candidates (the second with its
    # ring minimum exactly 2*Gc); odd rows tie with the row above, so MGN
    # keeps them whole.
    g = make_grid(L=4, delta=2.0 ** -2)
    n = g.n_axis
    vals = np.repeat(2.0 ** (np.arange(n) // 2), n).reshape(n, n).astype(np.complex128)
    for (k, l), shrink in (((14, 12), 8.0), ((20, 25), 4.0), ((27, 18), 8.0)):
        vals[k - 1 : k + 2, l - 1 : l + 2] = vals[k, l] / shrink
    f = WeightedField(grid=g, values=vals)
    target = 3.5
    w = g.index_halfwidth(target)
    lo = g.half_n - w
    G = np.abs(vals)
    box = G[lo : lo + 2 * w + 1, lo : lo + 2 * w + 1]
    assert (2.0 * box <= G[lo + 2 : lo + 2 * w + 3, lo : lo + 2 * w + 1]).mean() > 0.9
    assert (box <= G[lo : lo + 2 * w + 1, lo - 1 : lo + 2 * w]).mean() > 0.9
    _assert_matches_offset_loops(f, target)
    assert {tuple(r + lo) for r in amn_select(f, target).kl} == {(14, 12), (20, 25), (27, 18)}
    assert len(mgn(f, target)) > (2 * w + 1) ** 2 / 3


@settings(max_examples=200, deadline=None)
@given(
    re=hnp.arrays(np.int64, (13, 13), elements=hst.integers(0, 3)),
    im=hnp.arrays(np.int64, (13, 13), elements=hst.integers(0, 1)),
    real=hst.booleans(),
)
def test_blocked_selection_matches_offset_loops_with_ties(re, im, real):
    # few distinct magnitudes, so rings tie with each other, with 2*Gc and
    # (where the inner neighbours match the centre) with Gc + eta
    g = make_grid(L=1.5, delta=2.0 ** -2)
    f = WeightedField(grid=g, values=re + (0 if real else 1j) * im)
    for w in range(5):
        _assert_matches_offset_loops(f, w * g.delta)


def test_amn_requires_two_rings():
    g = make_grid(L=1, delta=D16)
    f = synthetic_field(g, lambda z: z)
    with pytest.raises(ConfigError, match=r"ring\(s\) of samples beyond"):
        amn_select(f, 1.0)  # no samples beyond the box


def test_simulated_pure_noise_count_near_expected():
    # expected zero count over the 8x8 box is 64/pi ~ 20.4
    g = make_grid(L=4.03125, delta=2.0 ** -6)
    f = synthesize_field(draw_noise(g, 1.0, 0), ZERO_SIGNAL, g)
    expected = 64.0 / math.pi
    band = 3.0 * math.sqrt(expected)
    for detector in (amn, mgn):
        n = len(detector(f, 4.0))
        assert abs(n - expected) < band


# ---------------------------------------------------------------------------
# sieve


def _field_with_magnitudes(entries, n=33, delta=D16):
    g = make_grid(L=1, delta=delta)
    assert g.n_axis == n
    vals = np.ones((n, n), dtype=np.complex128)
    for (k, l), mag in entries.items():
        vals[k, l] = mag
    return g, WeightedField(grid=g, values=vals)


def test_sieve_hand_trace():
    # candidates at 0, delta, 10*delta with magnitudes 0.1, 0.5, 0.3:
    # keep 0 (minimal), drop delta (within 4 steps), keep 10*delta
    g, f = _field_with_magnitudes({(16, 16): 0.1, (17, 16): 0.5, (26, 16): 0.3})
    cands = PointSet(
        Method.AMN, g.delta, 1.0, np.array([[16, 16], [17, 16], [26, 16]]), seed=None
    )
    kept = sieve(cands, f)
    assert list(map(complex, kept.points)) == [0j, complex(10 * g.delta, 0)]


def test_sieve_singleton():
    g, f = _field_with_magnitudes({(16, 16): 0.2})
    cands = PointSet(Method.ST, g.delta, 1.0, np.array([[16, 16]]), seed=None)
    assert list(map(complex, sieve(cands, f).points)) == [0j]
    # candidates of another spacing index another lattice
    foreign = PointSet(Method.ST, 2 * g.delta, 1.0, np.array([[8, 8]]), seed=None)
    with pytest.raises(ConfigError, match="spacing does not match"):
        sieve(foreign, f)


def test_sieve_empty():
    g, f = _field_with_magnitudes({})
    cands = PointSet(Method.ST, g.delta, 1.0, np.empty((0, 2), dtype=np.int64), seed=None)
    assert len(sieve(cands, f)) == 0


def test_sieve_cluster_keeps_unique_minimum():
    entries = {}
    rng = np.random.default_rng(5)
    mags = rng.permutation(9) + 1.0
    for i, (k, l) in enumerate((k, l) for k in (8, 9, 10) for l in (8, 9, 10)):
        entries[(k, l)] = mags[i] / 10.0
    g, f = _field_with_magnitudes(entries)
    cands = PointSet(
        Method.AMN, g.delta, 1.0, np.array(sorted(entries)), seed=None
    )
    kept = sieve(cands, f)
    assert len(kept) == 1
    winner = min(entries, key=entries.get)
    assert tuple(kept.kl[0]) == winner


def test_sieve_tie_breaks_by_row_major_index():
    g, f = _field_with_magnitudes({(7, 6): 0.5, (7, 9): 0.5})
    cands = PointSet(Method.AMN, g.delta, 1.0, np.array([[7, 9], [7, 6]]), seed=None)
    kept = sieve(cands, f)
    assert [tuple(r) for r in kept.kl] == [(7, 6)]


@settings(max_examples=60, deadline=None)
@given(
    idx=hst.sets(
        hst.tuples(hst.integers(0, 16), hst.integers(0, 16)), min_size=1, max_size=40
    ),
    seed=hst.integers(0, 2 ** 31),
)
def test_sieve_separation_and_maximality(idx, seed):
    g = make_grid(L=1, delta=2.0 ** -3)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 1.0, (17, 17)).astype(np.complex128)
    f = WeightedField(grid=g, values=vals)
    cands = PointSet(Method.AMN, g.delta, 1.0, np.array(sorted(idx)), seed=None)
    kept = sieve(cands, f)
    kept_set = {tuple(r) for r in kept.kl}
    assert kept_set <= set(idx)
    assert len(kept) == 0 or kept.min_separation() >= 5 or len(kept) == 1
    for k, l in idx:  # maximality: nothing was dropped without a nearby keeper
        assert any(max(abs(k - a), abs(l - b)) <= 4 for a, b in kept_set)


# ---------------------------------------------------------------------------
# MGN


def test_mgn_linear_field():
    g = make_grid(L=2, delta=D16)
    f = synthetic_field(g, lambda z: z)
    assert list(map(complex, mgn(f, 1.0).points)) == [0j]


def test_mgn_constant_field_is_empty():
    # neighbour minimality needs |lam| locally maximal, and some outward
    # neighbour always has a larger norm, so nothing qualifies
    g = make_grid(L=3, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, 2.0))
    got = mgn(f, 2.0)
    ax = g.axis()
    w = g.index_halfwidth(2.0)
    off = g.half_n - w
    brute = []
    for k in range(off, off + 2 * w + 1):
        for l in range(off, off + 2 * w + 1):
            centre = abs(ax[k] + 1j * ax[l])
            ring = [
                abs(ax[k + p] + 1j * ax[l + q])
                for p in (-1, 0, 1)
                for q in (-1, 0, 1)
                if (p, q) != (0, 0)
            ]
            if all(centre >= r for r in ring):
                brute.append((k - off, l - off))
    assert [tuple(r) for r in got.kl] == brute == []


def test_mgn_requires_one_ring():
    g = make_grid(L=1, delta=D16)
    f = synthetic_field(g, lambda z: z)
    with pytest.raises(ConfigError, match=r"ring\(s\) of samples beyond"):
        mgn(f, 1.0)


# ---------------------------------------------------------------------------
# ST


def test_st_all_above_threshold():
    g = make_grid(L=2, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, 50.0))
    assert len(st(f, 1.0)) == 0


def test_st_linear_field_single_point_near_origin():
    g = make_grid(L=2, delta=D16)
    f = synthetic_field(g, lambda z: z)
    got = st(f, 1.0)
    assert len(got) == 1
    assert abs(complex(got.points[0])) <= 2 * g.delta


def test_st_not_scale_invariant():
    g = make_grid(L=3, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, 0.1))
    scaled = WeightedField(grid=g, values=10.0 * f.values)
    a, b = st(f, 2.0), st(scaled, 2.0)
    assert len(a) > 0 and len(b) > 0
    assert {tuple(r) for r in a.kl} != {tuple(r) for r in b.kl}


def test_st_requires_one_ring():
    g = make_grid(L=1, delta=D16)
    f = synthetic_field(g, lambda z: z)
    with pytest.raises(ConfigError, match=r"ring\(s\) of samples beyond"):
        st(f, 1.0)


def test_detector_outputs_are_separated():
    g = make_grid(L=2, delta=2.0 ** -5)
    f = synthesize_field(draw_noise(g, 1.0, 23), ZERO_SIGNAL, g)
    for detector in (amn, st):
        ps = detector(f, 1.0)
        if len(ps) >= 2:
            assert ps.min_separation() >= 5


# ---------------------------------------------------------------------------
# the per-realization walk


def test_detect_ladder_runs_each_detector_on_each_level():
    g = make_grid(L=2, delta=2.0 ** -5)
    f = synthesize_field(draw_noise(g, 1.0, 5), ZERO_SIGNAL, g)
    rungs = ladder(f, 2)
    found = detect_ladder(f, 1.0, [2, 0], Method)
    # keys follow the levels in the order given, then the methods
    want = [((j, m), d(rungs[j], 1.0))
            for j in (2, 0) for m, d in zip(Method, (amn, mgn, st))]
    assert list(found) == [key for key, _ in want]
    assert all(_same_pointset(found[key], ps) for key, ps in want)
    # levels are read for their bounds and then walked, and methods once per
    # level, so one-shot iterators must give what lists give
    once = detect_ladder(f, 1.0, iter([2, 0]), iter(Method))
    assert list(once) == list(found)
    assert all(_same_pointset(once[key], ps) for key, ps in found.items())
    assert list(detect_ladder(f, 1.0, [1], [Method.ST, Method.AMN])) == [
        (1, Method.ST), (1, Method.AMN)]
    # no levels give no detections; a negative one is refused
    assert detect_ladder(f, 1.0, [], Method) == {}
    for levels in ([-1], [0, -2]):
        with pytest.raises(ConfigError, match="levels must be >= 0"):
            detect_ladder(f, 1.0, levels, Method)
    # a repeated level or method would name one point set twice, which a
    # dict of them would keep once in silence
    for levels in ([1, 1], iter([0, 2, 0])):
        with pytest.raises(ConfigError, match="repeated subsampling level"):
            detect_ladder(f, 1.0, levels, Method)
    for methods in ([Method.AMN, Method.AMN], [*Method, Method.ST]):
        with pytest.raises(ConfigError, match="repeated method"):
            detect_ladder(f, 1.0, [0], methods)


def test_each_method_names_its_detector():
    # the value is the detector function's name in bargzeros.detect, and
    # the point set it returns carries the member
    g = make_grid(L=2, delta=2.0 ** -5)
    f = synthesize_field(draw_noise(g, 1.0, 5), ZERO_SIGNAL, g)
    assert [m.value for m in Method] == ["amn", "mgn", "st"]
    for m in Method:
        assert getattr(detect, m.value).__name__ == m.value
        assert getattr(detect, m.value)(f, 1.0).method is m


# ---------------------------------------------------------------------------
# CSV round trip


def _same_pointset(a, b):
    return (
        a.method is b.method
        and a.delta == b.delta
        and a.domain_halfwidth == b.domain_halfwidth
        and a.seed == b.seed
        and np.array_equal(a.kl, b.kl)
        and np.array_equal(a.points, b.points)
    )


def test_pointset_csv_round_trip(tmp_path):
    g = make_grid(L=2, delta=2.0 ** -5)
    f = synthesize_field(draw_noise(g, 1.0, 31), ZERO_SIGNAL, g)
    ps = amn(f, 1.0)
    path = tmp_path / "points.csv"
    write_pointset_csv(ps, path, meta={"config": "abc123"})
    back = read_pointset_csv(path)
    assert _same_pointset(ps, back)
    assert "# config=abc123" in path.read_text()
    # the coordinate columns hold plain float literals of the exact points
    with open(path, newline="") as fh:
        recs = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(recs) == len(ps) > 0
    got = [complex(float(r["re"]), float(r["im"])) for r in recs]
    assert got == ps.points.tolist()


def test_pointset_csv_round_trip_of_each_method(tmp_path):
    # the CSV records the member's name, and reading it back gives the member
    kl = np.array([[4, 4], [8, 2]])
    for m in Method:
        ps = PointSet(m, 0.25, 1.0, kl, seed=7)
        path = tmp_path / f"points_{m.value}.csv"
        write_pointset_csv(ps, path)
        assert f"# method={m.name}\n" in path.read_text()
        assert _same_pointset(read_pointset_csv(path), ps)


def test_pointset_csv_round_trip_empty(tmp_path):
    g = make_grid(L=3, delta=D16)
    f = synthetic_field(g, lambda z: np.full_like(z, 1.0))
    ps = amn(f, 2.0)
    assert len(ps) == 0
    path = tmp_path / "empty.csv"
    write_pointset_csv(ps, path)
    back = read_pointset_csv(path)
    assert _same_pointset(ps, back)


def test_pointset_csv_requires_metadata(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("re,im,k,l,method,delta,seed\n")
    with pytest.raises(DataError):
        read_pointset_csv(path)
    meta = "# method={}\n# delta=0.25\n# domain_halfwidth=1.0\n# seed=3\n"
    rows = "re,im,k,l,method,delta,seed\n0.0,0.0,{},4,AMN,0.25,3\n"
    for method, k in (("BOGUS", "4"), ("AMN", "four"), ("AMN", "4.5")):
        path.write_text(meta.format(method) + rows.format(k))
        with pytest.raises(DataError):
            read_pointset_csv(path)
