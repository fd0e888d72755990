"""Field synthesis: noise statistics, oracle agreement, continuous evaluation."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as hst

from bargzeros import (
    ConfigError,
    DataError,
    FieldSource,
    SignalKind,
    SignalModel,
    WeightedField,
    amn,
    draw_noise,
    evaluate_continuous,
    make_grid,
    model_for,
    read_field,
    refine_zero,
    subsample,
    synthesize_field,
    write_field,
    zero_noise,
)
from bargzeros import simulate
from bargzeros.grid import WINDOW_T
from bargzeros.signal import sample_signal
from bargzeros.simulate import window
from conftest import index_of

ZERO = SignalModel(SignalKind.ZERO)


# ---------------------------------------------------------------------------
# noise draws


def test_noise_determinism():
    g = make_grid(L=2, delta=2.0 ** -4)
    a = draw_noise(g, sigma=1.0, seed=42)
    b = draw_noise(g, sigma=1.0, seed=42)
    c = draw_noise(g, sigma=1.0, seed=43)
    # a source of the zero signal: its samples are the noise alone
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.samples.size == 2 * (g.t_over_delta + g.half_n) + 1


def test_noise_variance_monte_carlo():
    # E|w_s|^2 = sigma^2 * delta * sqrt(pi/2); ~1e6 samples keep the
    # relative Monte-Carlo error well under the 1% budget
    g = make_grid(L=2, delta=2.0 ** -4)
    total, count = 0.0, 0
    for seed in range(3900):
        w = draw_noise(g, sigma=1.0, seed=seed).samples
        total += float(np.sum(w.real ** 2 + w.imag ** 2))
        count += w.size
    target = 2.0 ** -4 * math.sqrt(math.pi / 2.0)
    assert abs(total / count / target - 1.0) < 0.01


def test_noise_sigma_scaling():
    g = make_grid(L=2, delta=2.0 ** -4)
    total, count = 0.0, 0
    for seed in range(600):
        w = draw_noise(g, sigma=2.0, seed=seed).samples
        total += float(np.sum(w.real ** 2 + w.imag ** 2))
        count += w.size
    target = 4.0 * 2.0 ** -4 * math.sqrt(math.pi / 2.0)
    assert abs(total / count / target - 1.0) < 0.02


def test_zero_noise_vector():
    g = make_grid(L=1, delta=0.25)
    nd = zero_noise(g)
    assert nd.seed is None and nd.sigma == 0.0
    assert not nd.samples.any()


def test_noise_rejects_bad_sigma():
    g = make_grid(L=1, delta=0.25)
    with pytest.raises(ConfigError):
        draw_noise(g, sigma=0.0, seed=1)


@pytest.mark.parametrize("sigma, seed", [
    (1.0, None),  # a seedless source has no noise, so sigma 0
    (math.nan, None),
    (0.0, 1), (-1.0, 1), (math.inf, 1), (math.nan, 1),  # a seeded one's is positive, finite
    (1.0, -1),
])
def test_source_rejects_bad_sigma_or_seed(sigma, seed):
    g = make_grid(L=1, delta=0.25)
    with pytest.raises(ConfigError):
        FieldSource(g, ZERO, sigma, seed)
    if seed is not None:
        with pytest.raises(ConfigError):
            draw_noise(g, sigma=sigma, seed=seed)


# ---------------------------------------------------------------------------
# synthesis vs the defining sums


def naive_field(noise, signal, grid):
    # direct transcription of the defining sums: the short-time transform
    # H(k, j) = sum_s a_s * phi(delta*(s-k)) * exp(-2i*s*j*delta^2) evaluated
    # at the conjugated index (k, -j), times exp(-i*x*y)
    d = grid.delta
    h = grid.half_n
    w = noise.samples  # the noise alone: noise is a source of the zero signal
    s_half = w.size // 2
    a = [w[i] + d * sample_signal(signal, d * (i - s_half)) for i in range(w.size)]
    out = np.empty((grid.n_axis, grid.n_axis), dtype=np.complex128)
    for ik, k in enumerate(range(-h, h + 1)):
        for il, j in enumerate(range(-h, h + 1)):
            acc = 0j
            for i in range(len(a)):
                s = i - s_half
                t = d * (s - k)
                if abs(t) <= WINDOW_T + 1e-12:
                    acc += a[i] * float(window(t)) * cmath.exp(2j * s * j * d * d)
            out[ik, il] = cmath.exp(-1j * (d * k) * (d * j)) * acc
    return out


def direct_sum(source):
    """The field as the direct lattice sum at the grid's points (the sum
    ``evaluate_continuous`` takes), as ``values[k, l]``."""
    axis = source.grid.axis()
    return simulate._evaluate_lattice(source, axis, axis).T


def test_synthesis_matches_definition():
    g = make_grid(L=1, delta=0.125)
    noise = draw_noise(g, sigma=1.0, seed=7)
    sig = model_for(SignalKind.HERMITE1, 2.0)
    expected = naive_field(noise, sig, g)
    scale = np.abs(expected).max()
    fast = synthesize_field(noise, sig, g)
    for got in (fast.values, direct_sum(fast.source)):
        assert np.abs(got - expected).max() < 1e-13 * scale


def test_fast_path_matches_direct_sum():
    # at n=129 and n=769 the band is a few per cent of the bins; at delta
    # >= 1/4 it is every bin, and at L=10, delta=1/2 the window spectra's
    # angles reach 10 rad before they are wrapped; the non-dyadic spacings
    # make the phase arguments inexact
    for g in (
        make_grid(L=2, delta=2.0 ** -5),
        make_grid(L=3, delta=2.0 ** -7),
        make_grid(L=7, delta=0.25),
        make_grid(L=7, delta=1 / 3),
        make_grid(L=3, delta=0.5),
        make_grid(L=10, delta=0.5),
        make_grid(L=1.5, delta=0.0125),
    ):
        f = synthesize_field(draw_noise(g, sigma=1.0, seed=11), ZERO, g)
        slow = direct_sum(f.source)
        assert np.abs(f.values - slow).max() < 1e-13 * np.abs(slow).max()


def _column_bands(g, nfft, width):
    """Each column's own band: the ``width`` bins centred on its bump."""
    ll = np.arange(-g.half_n, g.half_n + 1)
    first = (np.rint(ll * (-g.delta**2 * nfft / math.pi)).astype(np.int64) - width // 2)
    return (first[:, None] + np.arange(width)) % nfft


def test_plan_band_is_narrow_only_for_a_long_window():
    # the window spans 2*T/delta + 1 samples: 1537 at delta=2^-7, where its
    # spectrum is a Gaussian bump of a few dozen bins that moves with the
    # column, so one band of a few dozen bins more holds the bands of every
    # column of a half; at delta >= 1/4 the band is every bin, and at L=10,
    # delta=1/2 the closed form's angles wrap around the circle
    for g in (make_grid(L=3, delta=2.0 ** -7), make_grid(L=3, delta=2.0 ** -8),
              make_grid(L=1, delta=0.25), make_grid(L=7, delta=1 / 3),
              make_grid(L=3, delta=0.5), make_grid(L=10, delta=0.5)):
        n, m_half = g.n_axis, g.t_over_delta
        nfft, halves, _ = simulate._plan(g)
        m = np.arange(-m_half, m_half + 1)
        phi = window(g.delta * m)
        own = _column_bands(g, nfft, simulate._band_width(phi, g.delta, nfft))
        # the halves split the columns in two
        assert [(c0, c1) for c0, c1, *_ in halves] == [(0, g.half_n + 1), (g.half_n + 1, n)]
        for c0, c1, k, weights, _ in halves:
            assert weights.shape == (k.size, c1 - c0) and weights.dtype == np.float64
            if g.delta < 0.25:
                assert k.size < 0.05 * nfft
            else:
                assert k.size == nfft
            assert ((0 <= k) & (k < nfft)).all() and np.unique(k).size == k.size
            # every column's own band lies inside its half's band
            assert np.isin(own[c0:c1], k).all()
            unphase = np.exp(-2j * math.pi * (k * m_half % nfft) / nfft)
            for c in sorted({c0, c0 + 1, g.half_n, c1 - 2, c1 - 1} & set(range(c0, c1))):
                # the weights, in closed form, are the column's spectrum, the
                # truncated modulated window's DFT taken directly, on the band's
                # bins, times the unphase that makes it real
                col = phi * np.exp((2j * g.delta**2) * ((c - g.half_n) * m))
                full = scipy.fft.ifft(col, nfft)
                want = full[k] * unphase
                assert np.abs(weights[:, c - c0] - want).max() < 1e-13 * np.abs(full).max()
                if g.delta < 0.25:
                    # and each weight above 1e-3 of the peak to 1e-13 of its own
                    # size: the Gaussian's slope would turn the rounding of an
                    # unsigned bin's angle into several times that
                    big = np.abs(want) > 1e-3 * np.abs(full).max()
                    assert (np.abs(weights[big, c - c0] - want[big]) < 1e-13 * np.abs(want[big])).all()
                assert np.linalg.norm(np.delete(full, k)) < 1e-14 * np.linalg.norm(full)


def test_next_fast_len_matches_scipy():
    # pocketfft's fast lengths for complex transforms: 11-smooth, the same
    # choice as scipy.fft.next_fast_len
    got = [simulate._next_fast_len(t) for t in range(1, 2**15 + 1)]
    assert got == [scipy.fft.next_fast_len(t) for t in range(1, 2**15 + 1)]


def test_plan_table_and_ramp_give_every_row_of_a_strip():
    # the strips cover the rows, each of _STRIP_ROWS rows but the last, which
    # holds one more when the rows end in a one-row tail (a one-row product
    # would go to zgemv, whose bits depend on the thread count); the
    # circular correlation of the tallest strip's samples does not wrap;
    # each half's table is the inverse DFT's rows for every strip, and the
    # ramp times a strip's row phase is its quadratic phase
    R = simulate._STRIP_ROWS
    for g in (make_grid(L=3, delta=2.0 ** -6), make_grid(L=3, delta=2.0 ** -7),
              make_grid(L=3, delta=2.0 ** -8), make_grid(L=1.5, delta=0.0125),
              make_grid(L=1, delta=2.0 ** -5), make_grid(L=1, delta=0.25),
              make_grid(L=7, delta=1 / 3), make_grid(L=1, delta=0.5)):
        n, m_half = g.n_axis, g.t_over_delta
        strips = simulate._strips(n)
        assert strips[0][0] == 0 and strips[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(strips, strips[1:]))
        assert all(r1 - r0 == R for r0, r1 in strips[:-1])
        assert 2 <= strips[-1][1] - strips[-1][0] <= R + 1
        rows = max(r1 - r0 for r0, r1 in strips)
        nfft, halves, ramp = simulate._plan(g)
        assert nfft >= rows + 2 * m_half
        assert ramp.shape == (rows, n)
        r = np.arange(rows)[:, None]
        for _, _, k, _, tab in halves:
            assert tab.shape == (rows, k.size)
            # the angles reach about 1e4 rad, whose rounding in doubles would
            # move a value by about 1e-12; long doubles leave about 1e-15
            angle = (2 * np.arccos(np.longdouble(-1))) * ((r + m_half) * k) / nfft
            want = np.cos(angle).astype(np.float64) + 1j * np.sin(angle).astype(np.float64)
            assert np.abs(tab - want).max() < 1e-14
        ll = np.arange(-g.half_n, g.half_n + 1)
        r0, r1 = strips[-1]
        kk0 = r0 - g.half_n
        phase = np.exp(1j * g.delta**2 * (kk0 + r[: r1 - r0]) * ll)
        # the rounding of the phase arguments, up to L**2 rad, bounds this
        got = ramp[: r1 - r0] * np.exp(1j * g.delta**2 * kk0 * ll)
        assert np.abs(got - phase).max() < 1e-15 * (1 + g.L**2)


def test_plan_memory_is_two_bands_and_one_strip_ramp():
    # the plan holds, per half of the columns, the real weights of one band
    # of bins, its bins and its table of one strip's rows, and one ramp of
    # one strip's rows, nothing that grows like n**2; a half's band is a
    # column's width plus the bump's shift across the half's columns, a few
    # dozen bins at L=3 for every delta from 2^-6 to 2^-8, and the plan stays
    # under 4.2 MB at n=1537
    for delta, spans in ((2.0 ** -6, [66, 66]), (2.0 ** -7, [62, 62]), (2.0 ** -8, [61, 61])):
        g = make_grid(L=3, delta=delta)
        n = g.n_axis
        nfft, halves, ramp = simulate._plan(g)
        m = np.arange(-g.t_over_delta, g.t_over_delta + 1)
        width = simulate._band_width(window(g.delta * m), g.delta, nfft)
        rows = ramp.shape[0]
        held = ramp.nbytes
        assert held == 16 * rows * n
        for c0, c1, k, weights, tab in halves:
            assert k.size - width <= math.ceil(g.half_n * g.delta**2 * nfft / math.pi)
            held += k.nbytes + weights.nbytes + tab.nbytes
        assert [k.size for _, _, k, _, _ in halves] == spans
        assert held == 16 * rows * n + sum((8 * (c1 - c0) + 8 + 16 * rows) * k.size
                                           for c0, c1, k, _, _ in halves)
        if n == 1537:
            assert held <= 4.2e6


@pytest.mark.parametrize("L, delta", [(3, 2.0 ** -6), (3, 2.0 ** -8), (1.5, 0.0125),
                                      (1, 2.0 ** -5), (7, 1 / 3)],
                         ids=["n385-tail", "n1537-tail", "n241-two-strips", "n65-one-strip",
                              "n43-every-bin"])
def test_fast_path_matches_direct_sum_at_strip_and_half_edges(L, delta):
    # each strip takes its own transform and each half of the columns its
    # own band, so the rows on either side of every strip boundary, the
    # first and last row of every strip and the first and last column of
    # each half must agree with the direct sum; n = 385 and 1537 end in a
    # one-row tail that joins the strip before it, n = 65 is one strip and
    # at n = 43 each half's band is every bin
    g = make_grid(L=L, delta=delta)
    f = synthesize_field(draw_noise(g, sigma=1.0, seed=13), ZERO, g)
    rows = sorted({r for r0, r1 in simulate._strips(g.n_axis)
                   for r in (r0 - 1, r0, r0 + 1, r1 - 1) if 0 <= r < g.n_axis})
    _, halves, _ = simulate._plan(g)
    cols = sorted({c for c0, c1, *_ in halves for c in (c0, c1 - 1)})
    axis = g.axis()
    slow = simulate._evaluate_lattice(f.source, axis[rows], axis[cols]).T
    got = f.values[np.ix_(rows, cols)]
    assert np.abs(got - slow).max() < 1e-13 * np.abs(slow).max()


_SYNTH_HASHES = """
import hashlib, sys
from bargzeros import (SignalKind, SignalModel, draw_noise, make_grid, model_for,
                       synthesize_field, zero_noise)
g = make_grid(L=float(sys.argv[1]), delta=float.fromhex(sys.argv[2]))
for noise, sig in ((draw_noise(g, 1.0, 5), model_for(SignalKind.HERMITE1, 2.0)),
                   (zero_noise(g), SignalModel(SignalKind.ZERO))):
    print(hashlib.sha256(synthesize_field(noise, sig, g).values.tobytes()).hexdigest())
"""


@pytest.mark.parametrize(
    "L, delta",
    [(3, 2.0 ** -7), (1, 2.0 ** -3), (1.5, 0.0125), (3, 2.0 ** -6)],
    ids=["n769-ragged", "n17-one-block", "n241-non-dyadic", "n385-benchmark"],
)
def test_threaded_synthesis_is_bit_identical_to_serial_loop(L, delta):
    # the products run on the BLAS's threads; a fresh process takes its
    # thread count from the environment, so one thread runs the products
    # serially, then two, five (more than most runners have) and the
    # BLAS's default, each against this process's field.  n = 769 and 385
    # end in a one-row tail that joins the strip before it (n % 128 == 1; a
    # one-row product would go to zgemv, whose bits depend on the thread
    # count), n = 17 is one strip, n = 241 has a non-dyadic spacing that
    # makes the phase arguments inexact, and n = 385 is the CLI benchmark's
    # grid.  The all-zero field shows the signed zeros of every product,
    # which a noisy field's nonzero values absorb
    g = make_grid(L=L, delta=delta)
    here = [
        hashlib.sha256(synthesize_field(noise, sig, g).values.tobytes()).hexdigest()
        for noise, sig in ((draw_noise(g, 1.0, 5), model_for(SignalKind.HERMITE1, 2.0)),
                           (zero_noise(g), ZERO))
    ]
    src = str(Path(simulate.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    base = {key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(path)
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                    {"OPENBLAS_NUM_THREADS": "5"}, {}):
        run = subprocess.run([sys.executable, "-c", _SYNTH_HASHES, str(L), float(delta).hex()],
                             env={**base, **threads}, capture_output=True, text=True,
                             check=True, timeout=120)
        assert run.stdout.split() == here, threads


def test_plan_cache_rotation_keeps_bits():
    # one grid more than the plan cache holds, in rotation, so every
    # synthesis after the first round rebuilds an evicted plan; the grids
    # share n, so a plan looked up under n alone would give a wrong field,
    # and their bands are every bin
    grids = [make_grid(L=1, delta=0.25), make_grid(L=2, delta=0.5),
             make_grid(L=4 / 3, delta=1 / 3)]
    assert len(grids) == simulate._PLAN_GRIDS + 1
    noises = {g: draw_noise(g, sigma=1.0, seed=2) for g in grids}
    first = {}
    for g in grids:
        f = synthesize_field(noises[g], ZERO, g)
        slow = direct_sum(f.source)
        assert np.abs(f.values - slow).max() < 1e-13 * np.abs(slow).max()
        first[g] = f.values.tobytes()
    for g in grids * 3:
        assert synthesize_field(noises[g], ZERO, g).values.tobytes() == first[g]


def test_zero_noise_gauss_matches_closed_form():
    # pure GAUSS signal: the weighted field is exp(-|z|^2/2) up to the
    # quadrature error of the defining Riemann sum
    g = make_grid(L=2, delta=2.0 ** -6)
    f = synthesize_field(zero_noise(g), model_for(SignalKind.GAUSS, 1.0), g)
    ax = g.axis()
    zg = ax[:, None] + 1j * ax[None, :]
    inner = (np.abs(zg.real) <= 1.0) & (np.abs(zg.imag) <= 1.0)
    exact = np.exp(-0.5 * np.abs(zg) ** 2)
    assert np.abs(f.values - exact)[inner].max() < 1e-6
    k0 = index_of(g, 0j)
    assert abs(abs(f.values[k0]) - 1.0) < 1e-6


def test_zero_noise_hermite_matches_closed_form():
    g = make_grid(L=2, delta=2.0 ** -6)
    sig = model_for(SignalKind.HERMITE1, 1.0)
    f = synthesize_field(zero_noise(g), sig, g)
    ax = g.axis()
    zg = ax[:, None] + 1j * ax[None, :]
    inner = (np.abs(zg.real) <= 1.0) & (np.abs(zg.imag) <= 1.0)
    exact = np.exp(-0.5 * np.abs(zg) ** 2) * sig.coefficient * zg
    assert np.abs(f.values - exact)[inner].max() < 1e-6
    # peak weighted amplitude sits on |z| = 1: value 1 for A = 1
    k1 = index_of(g, 1.0 + 0j)
    assert abs(abs(f.values[k1]) - 1.0) < 1e-6


def test_field_rejects_non_finite_values():
    # the finiteness test looks at the sum first, so it must still catch a
    # NaN that only an imaginary part holds, and an inf/-inf pair (whose sum
    # is NaN), and must accept finite values whose sum overflows; values of
    # another shape than the grid's are refused before they are scanned
    g = make_grid(L=1, delta=0.25)
    n = g.n_axis
    for shape in ((n, n + 1), (n - 1, n), (n * n,)):
        with pytest.raises(ConfigError, match="does not match grid"):
            simulate.WeightedField(grid=g, values=np.full(shape, math.nan, dtype=np.complex128))
    for bad in (complex(0, math.nan), complex(math.inf, 0)):
        v = np.zeros((n, n), dtype=np.complex128)
        v[n // 2, 1] = bad
        with pytest.raises(DataError):
            simulate.WeightedField(grid=g, values=v)
    v = np.zeros((n, n), dtype=np.complex128)
    v[0, 0], v[-1, -1] = math.inf, -math.inf
    with pytest.raises(DataError):
        simulate.WeightedField(grid=g, values=v)
    v[0, 0], v[-1, -1] = 1e308, 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(v.sum())
    simulate.WeightedField(grid=g, values=v)


def test_field_checks_each_column_sum():
    # the finiteness test sums the columns first: an inf/-inf pair in one
    # column makes that column's sum NaN and is refused, and a 1e308 pair in
    # one column overflows that column's sum but is finite, so is accepted
    g = make_grid(L=1, delta=0.25)
    n = g.n_axis
    v = np.zeros((n, n), dtype=np.complex128)
    v[0, 2], v[-1, 2] = math.inf, -math.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(v.sum(axis=0)[2])
    with pytest.raises(DataError):
        simulate.WeightedField(grid=g, values=v)
    v[0, 2], v[-1, 2] = 1e308, 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(v.sum(axis=0)[2])
    assert simulate.WeightedField(grid=g, values=v).values[0, 2] == 1e308


def test_synthesis_rejects_mismatched_noise():
    g16 = make_grid(L=1, delta=2.0 ** -4)
    g8 = make_grid(L=1, delta=2.0 ** -3)
    big = make_grid(L=2, delta=2.0 ** -3)
    # noise of another spacing, and noise of the same spacing on a smaller
    # or a larger grid, are another grid's
    for drawn_on, grid in ((g8, g16), (g8, big), (big, g8)):
        with pytest.raises(ConfigError, match="noise drawn on"):
            synthesize_field(draw_noise(drawn_on, sigma=1.0, seed=0), ZERO, grid)


@pytest.mark.filterwarnings("error")
def test_synthesis_refuses_samples_that_could_overflow():
    # finite samples whose transforms could overflow float64 are refused
    # before the first FFT, whether the signal or the noise makes them large
    g = make_grid(L=2, delta=2.0 ** -4)
    for noise, sig in ((zero_noise(g), model_for(SignalKind.GAUSS, 1e308)),
                       (zero_noise(g), model_for(SignalKind.HERMITE1, 1e308)),
                       (draw_noise(g, sigma=1e306, seed=0), ZERO)):
        with pytest.raises(ConfigError, match="could overflow"):
            synthesize_field(noise, sig, g)
        # the source's samples are refused, so no evaluation of it reads inf or NaN
        src = FieldSource(g, sig, noise.sigma, noise.seed)
        with pytest.raises(ConfigError, match="could overflow"):
            evaluate_continuous(src, 0j)
    noise = draw_noise(g, sigma=1e300, seed=0)
    f = synthesize_field(noise, model_for(SignalKind.HERMITE1, 1e300), g)
    assert np.isfinite(f.values).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L, delta", [(1, 0.5), (2, 2.0 ** -4), (3, 2.0 ** -6)],
                         ids=["n5", "n65", "n385"])
def test_largest_accepted_amplitude_synthesizes_finite_values(L, delta, tmp_path):
    # the overflow bound holds every intermediate of every evaluation below
    # half the float64 maximum, so the largest amplitude it accepts, found
    # by bisection, synthesizes without overflow, its lattice sum is finite
    # at the centre, off the grid and at a corner, and so is its series'
    # widest search, and twice that amplitude is refused; the bound is in
    # closed form, so drawing and reading a realization build no plan
    g = make_grid(L=L, delta=delta)
    noise = zero_noise(g)
    for kind in (SignalKind.HERMITE1, SignalKind.GAUSS):

        def accepted(a):
            try:
                FieldSource(g, model_for(kind, a)).samples
            except ConfigError:
                return False
            return True

        simulate._plan.cache_clear()
        lo, hi = 1.0, 1e308
        assert accepted(lo) and not accepted(hi)
        while hi > lo * (1 + 1e-12):
            mid = lo * math.sqrt(hi / lo)
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        assert simulate._plan.cache_info().currsize == 0
        f = synthesize_field(noise, model_for(kind, lo), g)
        assert np.isfinite(f.values).all()
        for z in (0j, 0.3 - 0.2j, complex(g.L, -g.L)):
            assert cmath.isfinite(evaluate_continuous(f.source, z))
        best, mag = refine_zero(f.source, 0j, 0.75, 3)
        assert cmath.isfinite(best) and math.isfinite(mag)
        write_field(f, tmp_path / "f.wfield")
        simulate._plan.cache_clear()
        read_field(tmp_path / "f.wfield")
        assert simulate._plan.cache_info().currsize == 0
        with pytest.raises(ConfigError, match="could overflow"):
            synthesize_field(noise, model_for(kind, 2 * lo), g)


def test_synthesis_draws_each_seed_once(monkeypatch):
    # a source draws its samples when first read and keeps them: synthesis
    # reads those of the source it is given when the signal is the source's
    # and draws once for a source of its own otherwise, and evaluation reads
    # the field's source
    draws = []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or rng(seed))
    g = make_grid(L=1, delta=2.0 ** -4)
    noise = draw_noise(g, 1.0, 3)
    for signal in (ZERO, model_for(SignalKind.GAUSS, 1.0)):
        f = synthesize_field(noise, signal, g)
        evaluate_continuous(f.source, 0.1j)
    assert draws == [3, 3]


def test_synthesis_deterministic():
    g = make_grid(L=1, delta=2.0 ** -4)
    a = synthesize_field(draw_noise(g, 1.0, 3), ZERO, g).values
    b = synthesize_field(draw_noise(g, 1.0, 3), ZERO, g).values
    assert np.array_equal(a, b)


def test_linearity():
    g = make_grid(L=2, delta=2.0 ** -4)
    noise = draw_noise(g, sigma=1.0, seed=5)
    sig = model_for(SignalKind.HERMITE1, 3.0)
    full = synthesize_field(noise, sig, g).values
    noise_only = synthesize_field(noise, ZERO, g).values
    signal_only = synthesize_field(zero_noise(g), sig, g).values
    err = np.abs(full - (noise_only + signal_only)).max()
    assert err < 1e-12 * np.abs(full).max()


# ---------------------------------------------------------------------------
# continuous evaluation


def test_continuous_matches_grid_values():
    g = make_grid(L=2.125, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.0, 9), model_for(SignalKind.GAUSS, 1.0), g)
    scale = np.abs(f.values).max()
    rng = np.random.default_rng(1)
    n = g.n_axis
    for k, l in rng.integers(0, n, size=(40, 2)):
        z = g.point_of(int(k), int(l))
        assert abs(evaluate_continuous(f.source, z) - f.values[k, l]) < 1e-12 * scale


def test_continuous_outside_domain():
    g = make_grid(L=1, delta=0.25)
    f = synthesize_field(draw_noise(g, 1.0, 0), ZERO, g)
    with pytest.raises(ConfigError, match="outside the stored domain"):
        evaluate_continuous(f.source, 1.5 + 0j)
    with pytest.raises(ConfigError, match="outside the stored domain"):
        evaluate_continuous(f.source, -2j)
    # NaN fails every comparison, so it must not pass the domain test
    for z in (complex(0, math.nan), complex(math.nan, 0), complex(math.inf, 0)):
        with pytest.raises(ConfigError, match="outside the stored domain"):
            evaluate_continuous(f.source, z)


def test_continuous_closed_form_off_grid():
    g = make_grid(L=2, delta=2.0 ** -6)
    src = FieldSource(g, model_for(SignalKind.GAUSS, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(25):
        z = complex(*rng.uniform(-1, 1, 2))
        assert abs(evaluate_continuous(src, z) - cmath.exp(-0.5 * abs(z) ** 2)) < 1e-6


def test_midpoint_value_inside_refined_envelope():
    # the value halfway between two adjacent grid points must land inside
    # the local spread of a synthesis on a twice finer grid
    coarse = make_grid(L=2, delta=2.0 ** -5)
    fine = make_grid(L=2, delta=2.0 ** -6)
    sig = model_for(SignalKind.GAUSS, 1.0)
    src_c = FieldSource(coarse, sig)
    f_f = synthesize_field(zero_noise(fine), sig, fine)
    k, l = index_of(coarse, complex(0.5, 0.25))
    z1 = coarse.point_of(k, l)
    z2 = coarse.point_of(k + 1, l)
    mid = (z1 + z2) / 2
    got = abs(evaluate_continuous(src_c, mid))
    kf, lf = index_of(fine, z1)
    k2f, _ = index_of(fine, z2)
    local = np.abs(f_f.values[kf : k2f + 1, lf])
    assert local.min() - 1e-9 <= got <= local.max() + 1e-9


# ---------------------------------------------------------------------------
# distributional checks (fixed seeds, so deterministic in practice)


def _probe_values(signal, seeds, probes, sigma=1.0):
    g = make_grid(L=2, delta=2.0 ** -4)
    out = np.empty((len(seeds), len(probes)), dtype=np.complex128)
    for i, seed in enumerate(seeds):
        src = FieldSource(g, signal, sigma, seed)
        out[i] = [evaluate_continuous(src, z) for z in probes]
    return out


def test_pure_noise_variance_at_probes():
    probes = [0j, 0.5 + 0j, 1 + 0j, 2 + 0j, 1j, 2j, 1 + 1j, -1 - 1j, -2 + 2j]
    vals = _probe_values(ZERO, range(2000), probes)
    var = vals.var(axis=0)
    assert np.abs(var - 1.0).max() < 0.1


def test_pure_noise_covariance_decay():
    # |Cov(V(z), V(w))| = exp(-|z-w|^2/2) for the pure-noise model
    pairs = [(0j, 0.5 + 0j), (0j, 1 + 0j), (0j, 2 + 0j), (1j, 1 + 1j)]
    probes = sorted({z for p in pairs for z in p}, key=lambda z: (z.real, z.imag))
    where = {z: i for i, z in enumerate(probes)}
    vals = _probe_values(ZERO, range(2000), probes)
    centred = vals - vals.mean(axis=0)
    for z, w in pairs:
        a, b = centred[:, where[z]], centred[:, where[w]]
        emp = np.mean(a * np.conj(b))
        assert abs(abs(emp) - math.exp(-0.5 * abs(z - w) ** 2)) < 0.1


@pytest.mark.parametrize("kind", [SignalKind.GAUSS, SignalKind.HERMITE1])
def test_mean_law(kind):
    sig = model_for(kind, 1.0)
    probes = [0.5 + 0j, 1 + 1j]
    vals = _probe_values(sig, range(500), probes)
    for j, z in enumerate(probes):
        col = vals[:, j]
        expect = cmath.exp(-0.5 * abs(z) ** 2) * sig.coefficient * (z if kind is SignalKind.HERMITE1 else 1.0)
        se = math.sqrt(col.var() / len(col))
        assert abs(col.mean() - expect) <= 3.0 * se


# ---------------------------------------------------------------------------
# zero refinement


def _hermite_source():
    g = make_grid(L=1, delta=2.0 ** -5)
    return FieldSource(g, model_for(SignalKind.HERMITE1, 1.0))


def test_refine_zero_converges_to_origin():
    src = _hermite_source()
    loc, mag = refine_zero(src, 0.01 + 0.01j, radius=0.05, levels=3)
    assert abs(loc) < 1e-3
    assert mag < 1e-3


def test_refine_zero_levels_zero_is_coarse_scan():
    src = _hermite_source()
    loc, mag = refine_zero(src, 0.01 + 0.01j, radius=0.05, levels=0)
    # coarse 9x9 scan: best point within one step of the true zero
    assert abs(loc) <= 0.05 * math.sqrt(2.0) / 4 + 1e-12
    assert mag <= abs(evaluate_continuous(src, 0.01 + 0.01j))


def test_refine_zero_monotone_in_levels():
    src = _hermite_source()
    mags = [refine_zero(src, 0.01 + 0.01j, radius=0.05, levels=n)[1] for n in range(4)]
    assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))


def test_refine_zero_validates_arguments():
    src = _hermite_source()
    with pytest.raises(ConfigError):
        refine_zero(src, 0j, radius=0.01, levels=1)  # below grid spacing
    with pytest.raises(ConfigError):
        refine_zero(src, 0j, radius=0.1, levels=-1)
    with pytest.raises(ConfigError):
        refine_zero(src, 0j, radius=math.nan, levels=1)
    with pytest.raises(ConfigError, match="outside the stored domain"):
        refine_zero(src, complex(math.nan, 0), radius=0.1, levels=1)
    with pytest.raises(ConfigError):
        refine_zero(src, 0j, radius=0.1, levels=1.5)
    with pytest.raises(ConfigError):
        refine_zero(src, 0j, radius=0.1, levels="2")
    # a bool is an Integral, but True is not a count of passes
    for flag in (True, False):
        with pytest.raises(ConfigError, match="levels must be an integer >= 0"):
            refine_zero(src, 0j, radius=0.1, levels=flag)


def scalar_evaluate(source, z):
    """Per-point reference: the windowed sum for a single ``z``, summed
    directly (the pre-lattice ``evaluate_continuous`` body)."""
    g = source.grid
    x, y = z.real, z.imag
    if abs(x) > g.L or abs(y) > g.L:
        raise ConfigError(f"{z} outside the stored domain (halfwidth {g.L})")
    d = g.delta
    lo = math.ceil((x - WINDOW_T) / d - 1e-12)
    hi = math.floor((x + WINDOW_T) / d + 1e-12)
    s = np.arange(lo, hi + 1)
    a = source.samples[s + source.samples.size // 2]
    t = d * s
    val = np.sum(a * window(t - x) * np.exp(2j * y * t))
    return complex(np.exp(-1j * x * y) * val)


def scalar_refine(source, z0, radius, levels):
    """Reference search: one scalar evaluation per candidate, taking any
    strictly smaller magnitude in row-major order (``dy`` outer)."""
    centre = z0
    best, best_mag = z0, abs(scalar_evaluate(source, z0))
    r = radius
    for _ in range(levels + 1):
        offs = np.linspace(-r, r, 9)
        for dy in offs:
            for dx in offs:
                p = complex(centre.real + dx, centre.imag + dy)
                mag = abs(scalar_evaluate(source, p))
                if mag < best_mag:
                    best, best_mag = p, mag
        centre = best
        r /= 4.0
    return best, best_mag


@pytest.mark.parametrize("spread", [0.1, 1.2], ids=["T6", "wide"])
def test_lattice_matches_per_point_sum(spread):
    # with x values 2.4 apart their windows overlap only partly, so a
    # sample summed outside its own point's window would show
    g = make_grid(L=2, delta=2.0 ** -5)
    src = FieldSource(g, model_for(SignalKind.GAUSS, 1.0), 1.0, 4)
    rng = np.random.default_rng(5)
    # off-grid centre, uneven spacing so no point sits on the lattice
    xs = 0.3 + np.sort(rng.uniform(-spread, spread, 9))
    ys = -0.7 + np.sort(rng.uniform(-spread, spread, 9))
    got = simulate._evaluate_lattice(src, xs, ys)
    want = np.array([[scalar_evaluate(src, complex(x, y)) for x in xs] for y in ys])
    assert got.shape == (9, 9)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    assert abs(evaluate_continuous(src, complex(xs[2], ys[7])) - want[7, 2]) <= 1e-13 * scale


@pytest.mark.parametrize("L, delta, xs, ys", [
    (1, 0.25, [-1.0, 0.3], [0.45, -1.0]),  # S = 54 samples, below one table
    (2, 2.0 ** -5, [0.25, 0.3, 0.41], [-0.7, 0.2, 1.9]),  # S = 390 = 6*64 + 6
    # |x| = |y| = L, where the phases 2*y*t_s reach 2*L*(L + T) = 80 rad
    (4, 2.0 ** -7, [-4.0, 0.1, 4.0], [-4.0, 4.0]),
    (1.5, 0.0125, [-1.5, 0.33, 1.5], [1.5, -0.77, -1.5]),  # inexact spacing
    (2, 2.0 ** -5, [1.7, -0.2, 0.9, -2.0, 0.55], [0.35]),  # one row, S = 503
    (2, 2.0 ** -5, [-0.6], [-1.9, -0.3, 0.8, 2.0]),  # one column, S = 384 = 6*64
], ids=["S-below-table", "S-not-multiple", "corners", "non-dyadic", "1xn", "nx1"])
def test_tabled_lattice_matches_per_point_sum(L, delta, xs, ys):
    # the exponentials come from two short tables over the sample lattice;
    # these are the table's edge cases: a partial or single block of samples,
    # the largest phases, and a spacing whose products are inexact
    g = make_grid(L=L, delta=delta)
    src = FieldSource(g, model_for(SignalKind.GAUSS, 1.0), 1.0, 8)
    got = simulate._evaluate_lattice(src, xs, ys)
    want = np.array([[scalar_evaluate(src, complex(x, y)) for x in xs] for y in ys])
    assert got.shape == (len(ys), len(xs))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_refine_matches_per_point_search():
    g = make_grid(L=3, delta=2.0 ** -5)
    radius, levels = 2.0 * g.delta, 4
    checked = 0
    for seed in (0, 1):
        f = synthesize_field(draw_noise(g, 1.0, seed), ZERO, g)
        for p in amn(f, 2.0).points:
            loc, mag = refine_zero(f.source, complex(p), radius, levels)
            ref_loc, ref_mag = scalar_refine(f.source, complex(p), radius, levels)
            assert loc == ref_loc
            assert abs(mag - ref_mag) <= 1e-9 * ref_mag
            checked += 1
    assert checked >= 4


def test_refine_wider_than_the_series_is_refused():
    # every pass reads the Taylor series about the start, so a radius whose
    # search reaches past _SERIES_REACH is refused; the widest one allowed
    # still matches the per-point search
    g = make_grid(L=6, delta=2.0 ** -3)
    f = synthesize_field(draw_noise(g, 1.0, 0), ZERO, g)
    p = complex(amn(f, 2.0).points[0])
    for radius in (0.8, 3.5, math.inf):
        assert 4.0 / 3.0 * radius > simulate._SERIES_REACH
        with pytest.raises(ConfigError, match="reaches past the series"):
            refine_zero(f.source, p, radius, 1)
    loc, mag = refine_zero(f.source, p, 0.75, 1)
    ref_loc, ref_mag = scalar_refine(f.source, p, 0.75, 1)
    assert loc == ref_loc
    assert abs(mag - ref_mag) <= 1e-9 * ref_mag


def reference_series_magnitudes(source, z0, reach):
    """The series evaluator as first written: a closure that checks the
    domain with array reductions and builds each call's ``zeta`` and power
    table afresh.  Same operands and operation order as
    ``simulate._series_moments`` and ``refine_zero``'s passes, so the
    results agree bit for bit."""
    g = source.grid
    d, half = g.delta, source.samples.size // 2
    x0, y0 = z0.real, z0.imag
    lo = max(math.ceil((x0 - reach - WINDOW_T) / d - 1e-12), -half)
    hi = min(math.floor((x0 + reach + WINDOW_T) / d + 1e-12), half)
    u = d * np.arange(lo, hi + 1) - x0
    phase = simulate._waves(np.array([2.0 * d * y0]), lo, u.size)[0]
    b = source.samples[lo + half : hi + half + 1] * window(u) * phase
    x = 2.0 * math.sqrt(2.0) * reach * np.abs(u).max()
    terms, tail = 1, x * math.exp(x)
    while tail > 2.0**-60:
        tail *= x / (terms + 1)
        terms += 1
    powers = np.empty((terms, u.size))
    powers[0] = 1.0
    for m in range(1, terms):
        np.multiply(powers[m - 1], (2.0 / m) * u, out=powers[m])
    moments = (powers @ b.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()

    def magnitudes(xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        simulate._check_domain(g, xs, ys)
        p, q = xs - x0, ys - y0
        zeta = (p[None, :] + 1j * q[:, None]).ravel()
        zp = np.empty((terms, zeta.size), dtype=np.complex128)
        zp[0] = 1.0
        zp[1:2] = zeta
        n = 2
        while n < terms:
            k = min(n - 1, terms - n)
            np.multiply(zp[1 : k + 1], zp[n - 1], out=zp[n : n + k])
            n += k
        return np.exp(-p * p) * np.abs(moments @ zp).reshape(ys.size, xs.size)

    magnitudes.centre = abs(complex(moments[0]))
    return magnitudes


def reference_refine(source, z0, radius, levels):
    """``refine_zero``'s nested search as first written, on
    :func:`reference_series_magnitudes`."""
    best = complex(z0)
    simulate._check_domain(source.grid, np.array([best.real, best.imag]))
    magnitudes = reference_series_magnitudes(source, best, 4.0 / 3.0 * radius)
    best_mag = magnitudes.centre
    offs = np.linspace(-radius, radius, 9)
    for _ in range(levels + 1):
        xs, ys = best.real + offs, best.imag + offs
        mags = magnitudes(xs, ys)
        i, j = divmod(int(mags.argmin()), 9)
        if mags[i, j] < best_mag:
            best, best_mag = complex(xs[j], ys[i]), float(mags[i, j])
        offs = offs * 0.25
    return best, best_mag


@pytest.mark.parametrize("signal", [ZERO, model_for(SignalKind.HERMITE1, 100.0)],
                         ids=["zero", "hermite1-A100"])
@pytest.mark.parametrize("delta, reach", [(2.0 ** -7, 2.0 ** -6 * 4 / 3),
                                          (2.0 ** -4, simulate._SERIES_REACH)],
                         ids=["2delta", "widest"])
def test_series_magnitudes_match_lattice(signal, delta, reach):
    # refine_zero's Taylor series about z0 against the lattice sum, on a
    # grid over the whole square it serves and on a fine one at its corner:
    # summed by the power table and product that refine_zero's passes run
    # (the reference evaluator, bit-identical to them by
    # test_refine_is_bit_identical_to_reference on these signals and
    # reaches), and by Horner's rule from _series_moments
    g = make_grid(L=3, delta=delta)
    f = synthesize_field(draw_noise(g, 1.0, 5), signal, g)
    scale = np.abs(f.values).max()
    for z0 in (0.3 - 0.2j, complex(amn(f, 1.5).points[0])):
        magnitudes = reference_series_magnitudes(f.source, z0, reach)
        moments = simulate._series_moments(f.source, z0, reach)
        for centre, r in ((z0, reach), (z0 + reach * (0.99 - 0.99j), reach / 256)):
            offs = np.linspace(-r, r, 9)
            xs, ys = centre.real + offs, centre.imag + offs
            want = np.abs(simulate._evaluate_lattice(f.source, xs, ys))
            assert np.abs(magnitudes(xs, ys) - want).max() <= 1e-13 * scale
            p, q = xs - z0.real, ys - z0.imag
            series = np.polynomial.polynomial.polyval(p[None, :] + 1j * q[:, None], moments)
            assert np.abs(np.exp(-p * p) * np.abs(series) - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("signal", [ZERO, model_for(SignalKind.HERMITE1, 100.0)],
                         ids=["zero", "hermite1-A100"])
@pytest.mark.parametrize("delta, reach", [(2.0 ** -7, 2.0 ** -6 * 4 / 3),
                                          (2.0 ** -4, simulate._SERIES_REACH)],
                         ids=["2delta", "widest"])
def test_series_centre_matches_lattice(signal, delta, reach):
    # refine_zero's start magnitude is the series' |M_0|, not a lattice sum
    g = make_grid(L=3, delta=delta)
    f = synthesize_field(draw_noise(g, 1.0, 5), signal, g)
    scale = np.abs(f.values).max()
    for z0 in (0.3 - 0.2j, complex(amn(f, 1.5).points[0])):
        centre = abs(complex(simulate._series_moments(f.source, z0, reach)[0]))
        assert abs(centre - abs(evaluate_continuous(f.source, z0))) <= 1e-13 * scale


@pytest.mark.parametrize("signal", [ZERO, model_for(SignalKind.HERMITE1, 100.0)],
                         ids=["zero", "hermite1-A100"])
@pytest.mark.parametrize("delta, radii, target", [
    (2.0 ** -7, (2.0 ** -6, 2.3 * 2.0 ** -7), 2.0),
    (2.0 ** -5, (2.0 ** -4, 2.3 * 2.0 ** -5), 2.0),
    # the widest radius, whose search reaches _SERIES_REACH (99 terms);
    # target 1.5 keeps every pass of the moved starts inside L=3
    (2.0 ** -4, (0.75,), 1.5),
], ids=["d2m7", "d2m5", "widest"])
def test_refine_is_bit_identical_to_reference(signal, delta, radii, target):
    # every AMN detection of three seeds and a start where no zero is, and
    # the same starts moved off the lattice (whose few-bit offsets u_s
    # would hide a change in the order of the series' products), at radius
    # 2*delta and at a radius that is no dyadic multiple of delta, or at
    # the widest radius, for levels 0 to 4
    g = make_grid(L=3, delta=delta)
    checked = 0
    for seed in (0, 1, 2):
        f = synthesize_field(draw_noise(g, 1.0, seed), signal, g)
        for p in [*amn(f, target).points, 0.3 - 0.2j]:
            for z0 in (complex(p), complex(p) + delta * (0.3 - 0.7j) / math.pi):
                for radius in radii:
                    for levels in range(5):
                        want = reference_refine(f.source, z0, radius, levels)
                        assert refine_zero(f.source, z0, radius, levels) == want
                        checked += 1
    assert checked >= 20 * len(radii)


def test_refine_domain_messages_match_reference():
    # a NaN start, starts outside, and on a field whose magnitude falls
    # outwards (the Gauss signal alone), searches whose first grid ends on
    # one of the four edges, so that a later pass leaves the domain: the
    # same refusal, word for word, as the reference
    g = make_grid(L=1, delta=2.0 ** -5)
    src = FieldSource(g, model_for(SignalKind.GAUSS, 1.0))
    radius = 2.0 * g.delta
    inner = 1.0 - radius
    along = (-0.8, -0.1, 0.0, 0.45)
    starts = [complex(math.nan, 0.0), complex(0.2, math.nan), 1.5 + 0.0j, 0.3 - 1.01j]
    for edge in ([complex(inner, t) for t in along], [complex(-inner, t) for t in along],
                 [complex(t, inner) for t in along], [complex(t, -inner) for t in along]):
        starts += edge
    for z0 in starts:
        with pytest.raises(ConfigError, match="outside the stored domain") as want:
            reference_refine(src, z0, radius, 4)
        with pytest.raises(ConfigError) as got:
            refine_zero(src, z0, radius, 4)
        assert str(got.value) == str(want.value)
    # the first pass alone stays inside
    assert refine_zero(src, complex(inner, 0.45), radius, 0) == reference_refine(
        src, complex(inner, 0.45), radius, 0)


def test_refine_within_the_series_reach_takes_no_lattice_sum(monkeypatch):
    src = _hermite_source()
    z0 = 0.01 + 0.01j
    want = refine_zero(src, z0, radius=0.05, levels=3)

    def refused(*args, **kwargs):
        raise AssertionError("lattice sum taken within the series' reach")

    monkeypatch.setattr(simulate, "_evaluate_lattice", refused)
    monkeypatch.setattr(simulate, "evaluate_continuous", refused)
    assert refine_zero(src, z0, radius=0.05, levels=3) == want


def test_refine_search_square_crossing_domain_raises():
    src = _hermite_source()  # stored domain is [-1, 1]^2
    with pytest.raises(ConfigError, match="outside the stored domain"):
        refine_zero(src, 0.99 + 0.5j, radius=0.05, levels=1)
    with pytest.raises(ConfigError, match="outside the stored domain"):
        simulate._evaluate_lattice(src, [0.0, 0.5], [0.2, -1.01])


# ---------------------------------------------------------------------------
# binary cache


def test_cache_round_trip_exact(tmp_path):
    g = make_grid(L=1.125, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.5, 21), model_for(SignalKind.GAUSS, 2.0), g)
    p = tmp_path / "f.wfield"
    write_field(f, p)
    back = read_field(p)
    assert back.grid == f.grid
    assert np.array_equal(
        np.ascontiguousarray(back.values).view(np.uint64),
        np.ascontiguousarray(f.values).view(np.uint64),
    )
    assert back.seed == 21
    assert back.source.signal.descriptor() == f.source.signal.descriptor()
    assert back.source.sigma == 1.5
    # the regenerated source supports continuous evaluation identically
    z = 0.3 + 0.7j
    assert evaluate_continuous(back.source, z) == evaluate_continuous(f.source, z)


@hst.composite
def _realizations(draw):
    """A source on a grid of at most 65 points per axis: any signal kind,
    and noise of a seed or none."""
    delta = draw(hst.sampled_from([0.5, 0.25, 0.2, 0.125, 0.1, 2.0 ** -4]))
    half_n = draw(hst.integers(math.ceil(1 / delta - 1e-9), 32))
    g = make_grid(L=half_n * delta, delta=delta)
    kind = draw(hst.sampled_from(list(SignalKind)))
    amp = 0.0 if kind is SignalKind.ZERO else draw(hst.floats(1e-3, 1e3))
    seed = draw(hst.none() | hst.integers(0, 2 ** 63))
    sigma = 0.0 if seed is None else draw(hst.floats(1e-3, 1e3))
    return FieldSource(g, model_for(kind, amp), sigma, seed)


@settings(max_examples=60, deadline=None)
@given(src=_realizations())
def test_cache_header_records_the_source(src):
    # the header is the source's record: it reads back as written, and the
    # source regenerated from it is the same realization
    f = synthesize_field(src, src.signal, src.grid)
    assert f.source is src
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "f.wfield"
        write_field(f, p)
        assert simulate.read_header(p) == src.header
        back = read_field(p)
    record = (back.source.grid, back.source.signal.descriptor(), back.source.sigma,
              back.source.seed)
    assert record == (src.grid, src.signal.descriptor(), src.sigma, src.seed)
    assert back.values.tobytes() == f.values.tobytes()
    assert back.source.samples.tobytes() == src.samples.tobytes()


def test_cache_rewrite_is_byte_identical(tmp_path):
    g = make_grid(L=1, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.0, 1), ZERO, g)
    p1, p2 = tmp_path / "a.wfield", tmp_path / "b.wfield"
    write_field(f, p1)
    write_field(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_of_a_noiseless_field(tmp_path):
    # the header records no seed, so the source read back has zero noise;
    # it must still reproduce the stored values
    g = make_grid(L=1, delta=2.0 ** -4)
    f = synthesize_field(zero_noise(g), model_for(SignalKind.HERMITE1, 2.0), g)
    p = tmp_path / "f.wfield"
    write_field(f, p)
    back = read_field(p)
    assert back.seed is None and back.values.tobytes() == f.values.tobytes()
    assert back.source.sigma == 0.0
    scale = np.abs(f.values).max()
    assert np.abs(direct_sum(back.source) - f.values).max() < 1e-13 * scale


def test_cache_records_its_realization(tmp_path):
    # the header records the realization read_field regenerates, so a field
    # without a source is refused before any file is made, and so is a
    # subsampled field, whose source's header names the fine grid: its
    # cache would hold a quarter of the samples that header promises
    g = make_grid(L=1, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.0, 4), ZERO, g)
    p = tmp_path / "f.wfield"
    with pytest.raises(ConfigError, match="without a source"):
        write_field(WeightedField(grid=g, values=f.values), p)
    with pytest.raises(ConfigError, match="not on its source's grid"):
        write_field(subsample(f), p)
    assert not p.exists()


def test_cache_reduced_precision(tmp_path):
    # every cache is written as complex128; the complex64 ones that earlier
    # versions could write are refused by name
    g = make_grid(L=1, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.0, 4), ZERO, g)
    full, half = tmp_path / "full.wfield", tmp_path / "half.wfield"
    write_field(f, full)
    line, _, _ = full.read_bytes().partition(b"\n")
    assert json.loads(line)["precision"] == "complex128"
    header = json.dumps({**json.loads(line), "precision": "complex64"}, sort_keys=True)
    half.write_bytes(header.encode() + b"\n" + f.values.astype(np.complex64).tobytes())
    with pytest.raises(DataError, match="'complex64' samples, not complex128; the complex64 "
                                        "caches of earlier versions are not read"):
        read_field(half)


def test_cache_rejects_corruption(tmp_path):
    g = make_grid(L=1, delta=2.0 ** -4)
    f = synthesize_field(draw_noise(g, 1.0, 4), ZERO, g)
    p = tmp_path / "f.wfield"
    write_field(f, p)
    blob = p.read_bytes()
    truncated = tmp_path / "cut.wfield"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataError):
        read_field(truncated)
    # short by whole elements or by part of one, or with bytes appended:
    # the file's size is checked before the payload is read
    for cut in (blob[:-16], blob[:-3], blob + b"\0" * 16, blob + b"\n"):
        truncated.write_bytes(cut)
        with pytest.raises(DataError, match="payload size"):
            read_field(truncated)
    garbage = tmp_path / "garbage.wfield"
    garbage.write_bytes(b"not json\n" + blob)
    with pytest.raises(DataError):
        read_field(garbage)
    header, _, payload = blob.partition(b"\n")
    meta = json.loads(header)
    del meta["n_axis"]
    keyless = tmp_path / "keyless.wfield"
    keyless.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    with pytest.raises(DataError):
        read_field(keyless)
