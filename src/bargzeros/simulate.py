"""Simulation of the weighted transform of "signal + complex white noise".

The model is sampled on a time grid of spacing ``delta`` covering
``[-T-L, T+L]``: i.i.d. circular complex Gaussians ``w_s`` with
``E|w_s|^2 = sigma^2 * delta * sqrt(pi/2)`` plus the deterministic samples
``delta * f1(delta*s)``.  A truncated Gaussian window
``phi = sqrt(2/pi) * exp(-t^2)`` on ``[-T, T]``, ``T = 6``
(:data:`~bargzeros.grid.WINDOW_T`), turns these into a
discrete short-time Fourier transform, whose value at index ``(k, -j)``
times the phase ``exp(-1j*x*y)`` approximates the weighted transform
``exp(-|z|^2/2) * F(z)`` at ``z = delta*k + 1j*delta*j``.

Writing ``kk = k - half_n`` and ``ll = l - half_n`` for the signed array
indices, the stored value is

    V[k, l] = exp(1j*delta^2*kk*ll)
              * sum_{m=-M}^{M} a[kk+m] * phi(delta*m) * exp(2j*m*ll*delta^2)

with ``M = T/delta`` and ``a_s = w_s + delta*f1(delta*s)``.  Column ``ll``
of the inner sum correlates the samples with the modulated window
``phi(delta*m) * exp(2j*m*ll*delta^2)``, so it is the inverse FFT of the
samples' spectrum times the window's.  The window's spectrum is a Gaussian
bump (its time-frequency area is small) that moves with ``ll``, so one band
of ``S`` bins holds every column's: 103 at L=3 for delta from 2^-6 to 2^-8,
every bin at delta >= 1/4.  Of each inverse FFT's outputs only the ``n``
rows are kept, so :func:`synthesize_field` takes the field as one matrix
product, the ``(n, S)`` inverse DFT of the band times the samples' spectrum
on the band times the ``(S, n)`` real window spectra, followed by the
quadratic phase (:func:`_spectral_columns`).  The product runs on NumPy's
BLAS and its threads (``OPENBLAS_NUM_THREADS``); the output bits do not
depend on their number.  Its reference is the direct sum at the grid's
points, ``_evaluate_lattice(source, axis, axis).T``, the sum that
:func:`evaluate_continuous` evaluates anywhere.  That sum takes its
exponentials from two short tables per ``y`` (:func:`_waves`, a few ulp
off the direct exponential), and the tests check it against the per-point
sum to 1e-13 relative.  :func:`refine_zero`'s nested searches, their
start's magnitude included, read the same sum as a Taylor series about
their start, whose moments are formed once per call with phases from the
same tables (:func:`_series_magnitudes`), so a short search takes no
lattice sum at all.  The transforms are NumPy's FFTs (the C++ pocketfft,
which NumPy 2.0 and later ships).

Everything synthesis needs that depends on the grid alone is built once
per grid and kept for the last two grids used (the synthesis plan): the
window spectra on the band, ``8 * n * S`` bytes, and two ramps of one
chunk of ``_CHUNK_ROWS + 1`` rows, ``16 * 65 * (S + n)`` bytes: 3.0 MB
in all at n=1537.

A field cache (:func:`write_field`) is one JSON header line, the record
of the realization that :func:`read_field` regenerates, then the
complex128 samples (earlier versions' complex64 ones still read).  This
module alone builds (:func:`cache_header`) and reads the header.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError
from .grid import WINDOW_T, GridSpec, make_grid
from .signal import SignalModel, parse_signal, sample_signal

_WINDOW_NORM = math.sqrt(2.0 / math.pi)


def window(t):
    """The truncated analysis window ``sqrt(2/pi)*exp(-t^2)`` (caller
    guarantees ``|t| <= WINDOW_T``)."""
    t = np.asarray(t, dtype=np.float64)
    return _WINDOW_NORM * np.exp(-t * t)


@dataclass(frozen=True)
class NoiseDraw:
    """One realization of the discretised complex white noise.

    ``w[i]`` is the sample at time index ``s = i - s_half`` where
    ``s_half = (len(w) - 1) // 2``; the vector covers every index the
    synthesis of a field with the originating grid can touch.
    """

    w: np.ndarray
    seed: int | None
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.complex128)
        if w.ndim != 1 or w.size % 2 == 0:
            raise ConfigError("noise vector must be 1-D with odd length")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def s_half(self) -> int:
        return (self.w.size - 1) // 2


def _noise_length(grid: GridSpec) -> int:
    # columns up to half_n need time samples out to T/delta further
    return 2 * (grid.t_over_delta + grid.half_n) + 1


def draw_noise(grid: GridSpec, sigma: float, seed: int) -> NoiseDraw:
    """Draw the noise vector for ``grid``; bit-reproducible in ``seed``.

    Per-sample variance is ``sigma^2 * delta * sqrt(pi/2)``, split evenly
    between the real and imaginary parts.
    """
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n = _noise_length(grid)
    rng = np.random.default_rng(seed)
    scale = sigma * math.sqrt(grid.delta * math.sqrt(math.pi / 2.0) / 2.0)
    w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return NoiseDraw(w=w, seed=seed, delta=grid.delta, sigma=sigma)


def zero_noise(grid: GridSpec) -> NoiseDraw:
    """An all-zero noise vector (for synthesising pure-signal fields); its
    level ``sigma`` is 0, which the cache header of its field records."""
    w = np.zeros(_noise_length(grid), dtype=np.complex128)
    return NoiseDraw(w=w, seed=None, delta=grid.delta, sigma=0.0)


@dataclass(frozen=True)
class FieldSource:
    """Everything needed to re-evaluate one realization off the grid; a
    source whose field could overflow in synthesis is refused."""

    noise: NoiseDraw
    signal: SignalModel
    grid: GridSpec

    def __post_init__(self) -> None:
        g, noise = self.grid, self.noise
        if noise.delta != g.delta:
            raise ConfigError(f"noise spacing {noise.delta} does not match grid spacing {g.delta}")
        if noise.s_half < g.t_over_delta + g.half_n:
            raise ConfigError("noise vector too short for this grid")
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.abs(self.alpha).sum() * _band(g.n_axis, g.t_over_delta, g.delta)[-1]
        if not bound <= np.finfo(np.float64).max / 2:
            raise ConfigError("signal amplitude or sigma so large that synthesis could overflow")

    @cached_property
    def samples(self) -> np.ndarray:
        """``a_s = w_s + delta * f1(delta*s)`` for all stored ``s``."""
        s = np.arange(-self.noise.s_half, self.noise.s_half + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # __post_init__ refuses inf and nan
            a = self.noise.w + self.noise.delta * sample_signal(self.signal, self.noise.delta * s)
        a.setflags(write=False)
        return a

    @property
    def alpha(self) -> np.ndarray:
        """The samples the field reads: row ``kk``, ``a[s_half+kk-M : s_half+kk+M+1]``."""
        g = self.grid
        lead = self.noise.s_half - g.t_over_delta - g.half_n
        return self.samples[lead : lead + g.n_axis + 2 * g.t_over_delta]


@dataclass(frozen=True)
class WeightedField:
    """Samples of the weighted transform on a grid.

    ``values[k, l]`` is the weighted value at ``grid.point_of(k, l)``;
    nothing derived from them is cached.  When ``source`` is present the
    same realization can be evaluated at arbitrary points
    (``evaluate_continuous``) and zeros can be refined off-grid
    (``refine_zero``).
    """

    grid: GridSpec
    values: np.ndarray
    source: FieldSource | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        n = self.grid.n_axis
        if v.shape != (n, n):
            raise ConfigError(f"values shape {v.shape} does not match grid {(n, n)}")
        # a non-finite element makes the sum inf or NaN, so the elementwise
        # test runs only on the rare array whose sum is not finite (some
        # have no non-finite element: the sum of two 1e308 overflows)
        with np.errstate(over="ignore", invalid="ignore"):
            total = v.sum()
        if not np.isfinite(total) and not np.isfinite(v).all():
            raise DataError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def seed(self) -> int | None:
        return self.source.noise.seed if self.source is not None else None


def synthesize_field(noise: NoiseDraw, signal: SignalModel, grid: GridSpec) -> WeightedField:
    """Synthesize the weighted field for one noise realization.

    The field is one matrix product of the samples' spectrum on one band of
    bins (:func:`_spectral_columns`); the direct sum at the grid's points,
    ``_evaluate_lattice(source, axis, axis).T``, is the reference.
    ``FieldSource`` refuses, before the first FFT, samples that could
    overflow it.
    """
    source = FieldSource(noise=noise, signal=signal, grid=grid)
    values = _spectral_columns(source.alpha, grid.t_over_delta, grid.delta, grid.n_axis)
    return WeightedField(grid=grid, values=values, source=source)


#: columns per block of :func:`_plan`, two per inverse FFT; its
#: (_BLOCK_COLS // 2, nfft) buffer is 1.2 MB at n=1537
_BLOCK_COLS = 32

#: output rows per product of :func:`_spectral_columns`; a chunk of one row
#: would go to zgemv, whose bits depend on the BLAS thread count, so a
#: one-row tail joins the chunk before it
_CHUNK_ROWS = 64

#: grids whose synthesis plan is kept, so a caller alternating between a
#: fine grid and one other grid rebuilds neither
_PLAN_GRIDS = 2

#: share of a column's spectral energy its band may leave out: the dropped
#: bins then move a value by about sqrt(2**-100) ~ 1e-15 of its size, the
#: order of the rounding already there
_BAND_TAIL = 2.0**-100


def _band_width(phi: np.ndarray, delta: float, nfft: int) -> int:
    """Bins kept per column: the fewest ``2*h + 1`` (at most ``nfft``) whose
    complement holds at most ``_BAND_TAIL`` of any column's energy.

    A column's spectrum samples the window's DTFT ``W(omega)`` at bin steps
    from an off-grid centre, so a band of ``2*h + 1`` bins drops, on each
    side, one bin at each distance of at least ``h + 1/2, h + 3/2, ...``.
    ``|W|`` is at most the untruncated window's DTFT, a periodised Gaussian,
    plus ``2*phi(T + delta) / sin(omega/2)`` for the samples cut at ``|t| =
    T`` (Abel summation); both fall with the distance.  A column's energy is
    ``nfft * sum(phi**2)`` (Parseval).  At delta >= 1/3 the band is every
    bin.  The bound is analytic because a computed spectrum's
    rounding floor, about 1e-16 of its peak, lies above the tail it would
    measure.
    """
    omega = (2.0 * math.pi / nfft) * (np.arange((nfft + 1) // 2) + 0.5)
    gauss = sum(np.exp(-(((omega + 2.0 * math.pi * j) / (2.0 * delta)) ** 2)) for j in (-1, 0, 1))
    t_cut = delta * (phi.size // 2 + 1)
    cut = 2.0 * _WINDOW_NORM * math.exp(-t_cut * t_cut) / np.sin(omega / 2.0)
    bound = (math.sqrt(2.0) / delta) * gauss + cut
    # tail[h]: the bound on the bins outside a band of 2*h + 1
    tail = 2.0 * np.cumsum((bound**2)[::-1])[::-1]
    fits = np.flatnonzero(tail <= _BAND_TAIL * nfft * np.dot(phi, phi))
    return nfft if fits.size == 0 else min(2 * int(fits[0]) + 1, nfft)


def _next_fast_len(target: int) -> int:
    """The smallest length ``>= target`` (``target >= 1``) that pocketfft
    transforms fastest: one whose prime factors are at most 11."""
    n = target
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _band(n: int, m_half: int, delta: float):
    """The sizes of :func:`_plan`, taken without its transforms.

    Column ``ll``'s window spectrum is a bump at bin ``-delta**2*ll*nfft/pi``
    on a band of ``width`` bins (:func:`_band_width`) that moves down as
    ``ll`` grows, so the one band that holds every column's is the ``span``
    bins ``f + j``, from the last column's band to the first's, at most
    every bin.  Returns ``nfft``, ``f`` (``0 <= f < nfft``), ``span`` and
    the overflow ``gain`` of :func:`_spectral_columns`: ``|fft(alpha)|`` is
    at most ``|alpha|_1`` (an FFT's every intermediate is), each weight at
    most ``sum(phi) / nfft`` and each entry of ``D`` 1, so every partial sum
    of the product, its real and imaginary parts together, is at most
    ``|alpha|_1`` times ``sqrt(2) * span / nfft * sum(phi)``, the ``gain``
    unless that is below 1.
    """
    nfft = _next_fast_len(n + 2 * m_half)
    phi = window(delta * np.arange(-m_half, m_half + 1))
    width = _band_width(phi, delta, nfft)
    # the bump's shift from the centre column to the first (rint is odd)
    shift = int(np.rint((n // 2) * (delta * delta * nfft / math.pi)))
    span = min(width + 2 * shift, nfft)
    f = (-shift - width // 2) % nfft
    return nfft, f, span, max(1.0, math.sqrt(2.0) * span / nfft * phi.sum())


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _plan(n: int, m_half: int, delta: float):
    """The arrays of :func:`_spectral_columns` that depend on the grid alone.

    Returns ``nfft``; the band's bins ``k = f + j`` (:func:`_band`, ``k <
    2*nfft``); the weights ``W[j, c] = sum_m phi(delta*m) *
    exp(1j*m*(2*delta**2*ll + 2*pi*k_j/nfft)) / nfft``, ``ll = c -
    half_n``: column ``ll``'s window spectrum on the band, real because the
    window is even, ``8 * n * span`` bytes; and, for the ``r <=
    _CHUNK_ROWS`` rows of a chunk, the table ``tab[r, j] =
    exp(2j*pi*r*k_j/nfft)`` and the phase ramp ``ramp[r, c] =
    exp(1j*delta**2*r*ll)``, ``16 * (_CHUNK_ROWS + 1) * (span + n)``
    bytes: 1.3 MB and 1.7 MB at n=1537.  A block's weights come from
    inverse FFTs of its modulated windows, each the block's first column
    times an in-block ramp (a few ulp off the direct exponential, for one
    exponential per sample of a column instead of one per product).  All
    are read-only, since every caller on the grid shares them.
    """
    nfft, f, span, _ = _band(n, m_half, delta)
    d2 = delta * delta
    m = np.arange(-m_half, m_half + 1)
    phi = window(delta * m)
    ll = np.arange(-(n // 2), n // 2 + 1)
    k = f + np.arange(span)
    bins = k % nfft
    weights = np.empty((span, n))
    # the spectra are real, so columns 2*i and 2*i + 1 of a block share one
    # transform as its real and imaginary parts
    cols = np.arange(0, _BLOCK_COLS, 2)[:, None]
    pairs = np.exp((2j * d2) * (cols * m)) + 1j * np.exp((2j * d2) * ((cols + 1) * m))
    buf = np.zeros((_BLOCK_COLS // 2, nfft), dtype=np.complex128)
    for j0 in range(0, n, _BLOCK_COLS):
        first = phi * np.exp((2j * d2) * (ll[j0] * m))
        # the window about sample 0: m >= 0 at bins m, m < 0 at bins nfft + m
        np.multiply(first[m_half:], pairs[:, m_half:], out=buf[:, : m_half + 1])
        np.multiply(first[:m_half], pairs[:, :m_half], out=buf[:, nfft - m_half :])
        np.fft.ifft(buf, axis=1, out=buf)
        both = np.ascontiguousarray(buf[:, bins].T).view(np.float64)
        weights[:, j0 : j0 + _BLOCK_COLS] = both[:, : n - j0]
        buf[:, m_half + 1 : nfft - m_half] = 0
    rows = np.arange(_CHUNK_ROWS + 1)[:, None]
    tab = np.exp((2j * math.pi / nfft) * (rows * k % nfft))
    ramp = np.exp((1j * d2) * (rows * ll))
    for a in (k, weights, tab, ramp):
        a.setflags(write=False)
    return nfft, k, weights, tab, ramp


def _spectral_columns(alpha, m_half, delta, n):
    """The whole field ``exp(1j*d2*kk*ll) * sum_m alpha[i + M + m] * g_ll[m]``,
    ``g_ll[m] = phi(delta*m) * exp(2j*d2*m*ll)``, as one matrix product.

    Row ``i`` (``kk = i - half_n``) of column ``ll`` is the correlation of
    ``alpha`` (``n + 2*M`` samples) with the column's modulated window, so
    with ``A = fft(alpha, nfft)`` it is ``sum_k A[k] * G_ll[k] *
    exp(2j*pi*k*(i + M)/nfft) / nfft`` for the window's spectrum about
    sample 0, ``G_ll[k] = sum_m g_ll[m] * exp(2j*pi*k*m/nfft)``; ``nfft >=
    n + 2*M`` keeps the circular correlation from wrapping.  Only the band's
    bins ``k_j`` hold ``G_ll``, which :func:`_plan` keeps over ``nfft`` as
    the weights ``W``, so the field is

        V[i, c] = exp(1j*d2*kk*ll) * sum_j D[i, j] * A[k_j] * W[j, c]

    with ``D[i, j] = exp(2j*pi*(i + M)*k_j/nfft)``: one product of ``D``
    (``n x span``) with ``W`` scaled by the band of ``A``, then the
    quadratic phase.  It is taken in chunks of ``_CHUNK_ROWS`` rows, whose
    ``D`` rows are the plan's table times one row of exponentials with
    integer arguments reduced mod ``nfft`` (``2*pi*(i + M)*k/nfft`` itself
    reaches about 1e4 rad, whose rounding alone would move a value by about
    1e-12 of its size); each chunk then takes its quadratic phase, the
    plan's ramp times one row of exponentials, while it is still in cache.

    The products run on NumPy's BLAS, on its threads; a product of two or
    more rows sums each element in one order whatever their number, so the
    output bits do not depend on it.
    """
    nfft, k, weights, tab, ramp = _plan(n, m_half, delta)
    d2 = delta * delta
    ll = np.arange(-(n // 2), n // 2 + 1)
    band = weights * np.fft.fft(alpha, nfft)[k % nfft, None]
    out = np.empty((n, n), dtype=np.complex128)
    starts = range(0, n - 1, _CHUNK_ROWS)
    for r0, r1 in zip(starts, [*starts[1:], n]):
        d_rows = tab[: r1 - r0] * np.exp((2j * math.pi / nfft) * ((r0 + m_half) * k % nfft))
        chunk = np.matmul(d_rows, band, out=out[r0:r1])
        chunk *= ramp[: r1 - r0]
        chunk *= np.exp((1j * d2 * (r0 - n // 2)) * ll)
    return out


#: length of the short table of :func:`_waves`: a y's exponentials over
#: ``S`` samples come from ``ceil(S/_TABLE) + _TABLE`` of them, 89 instead
#: of 1541 at delta=2**-7, T=6
_TABLE = 64


def _check_domain(g: GridSpec, *axes) -> None:
    for axis in axes:
        if not np.abs(axis).max(initial=0.0) <= g.L:  # NaN too
            bad = ~(np.abs(axis) <= g.L)
            raise ConfigError(
                f"coordinate {axis[bad][0]} outside the stored domain (halfwidth {g.L})"
            )


def _waves(theta: np.ndarray, s0: int, size: int) -> np.ndarray:
    """``out[i, k] = exp(1j*theta[i]*(s0 + k))`` for ``k < size``.

    With ``k = _TABLE*q + r`` each exponential is ``exp(1j*theta*(s0 +
    _TABLE*q)) * exp(1j*theta*r)``: a product of two short tables per
    ``theta``, a few ulp off the direct exponential.
    """
    coarse = np.exp(1j * np.outer(theta, s0 + _TABLE * np.arange(-(-size // _TABLE))))
    fine = np.exp(1j * np.outer(theta, np.arange(_TABLE)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(theta.size, -1)[:, :size]


def _evaluate_lattice(source: FieldSource, xs, ys) -> np.ndarray:
    """The weighted transform at every ``xs[j] + 1j*ys[i]``, as ``out[i, j]``.

    Uses the separable form ``V(x, y) = exp(-1j*x*y)
    * sum_s [a_s * phi(t_s - x)] * exp(2j*y*t_s)`` with ``t_s = delta*s``:
    one ``(ny, S)`` matrix of exponentials times one ``(S, nx)`` matrix of
    windowed samples (zero outside each ``x``'s window).  The samples lie
    on a lattice, ``t_s = delta*s``, so with ``theta = 2*delta*y`` the
    exponentials come from two short tables per ``y`` (:func:`_waves`).
    The tests check this sum against the per-point sum to 1e-13 relative.
    """
    g = source.grid
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    _check_domain(g, xs, ys)
    d = source.noise.delta
    # per-x window index ranges, as |t_s - x| <= T with a rounding guard
    lo = np.ceil((xs - WINDOW_T) / d - 1e-12).astype(np.int64)
    hi = np.floor((xs + WINDOW_T) / d + 1e-12).astype(np.int64)
    s0, s1 = lo.min(), hi.max()
    size = s1 - s0 + 1
    t = d * np.arange(s0, s1 + 1)
    a = source.samples[s0 + source.noise.s_half : s1 + source.noise.s_half + 1]
    weighted = a * window(t - xs[:, None])
    for row, first, last in zip(weighted, lo - s0, hi - s0):
        row[:first] = 0.0
        row[last + 1 :] = 0.0
    waves = _waves(2.0 * d * ys, s0, size)
    return np.exp(-1j * np.outer(ys, xs)) * (waves @ weighted.T)


def evaluate_continuous(source: FieldSource, z: complex) -> complex:
    """Evaluate the weighted transform of the realization at any point.

    At stored grid points this reproduces the synthesized values (up to
    rounding); elsewhere it extends the same finite sum continuously.
    """
    return complex(_evaluate_lattice(source, [z.real], [z.imag])[0, 0])


#: the largest sup-norm distance from its centre at which
#: :func:`_series_magnitudes` is used: at distance ``r`` its terms reach
#: about ``exp(2*r**2)`` of the sum's scale, and its rounding with them
_SERIES_REACH = 1.0


def _series_magnitudes(source: FieldSource, z0: complex, reach: float):
    """``|V|`` near ``z0``, a point of the stored domain, from one Taylor
    series: a function of ``(xs, ys)``, all within ``reach`` of ``z0`` in
    sup norm, that returns ``out[i, j] = |V(xs[j] + 1j*ys[i])|``; its
    ``centre`` attribute is ``|V(z0)| = |M_0|``.

    With ``x = x0 + p``, ``y = y0 + q``, ``zeta = p + 1j*q`` and ``u_s =
    t_s - x0``, the window factors as ``phi(u_s - p) = phi(u_s) *
    exp(2*u_s*p - p**2)``, so ``|V(x, y)| = exp(-p**2) * |sum_s b_s *
    exp(2*u_s*zeta)|`` with ``b_s = a_s * phi(u_s) * exp(2j*y0*t_s)``, and
    the sum is the power series ``sum_m M_m * zeta**m`` with moments ``M_m
    = sum_s b_s * (2*u_s)**m / m!``.  The phases ``exp(2j*y0*t_s)`` come
    from the lattice sum's two short tables (:func:`_waves`).  The moments
    are formed once, over the union of the windows within ``reach``; each
    point then costs a polynomial, cut where the series' remainder is below
    ``2**-60`` of the sum's scale: 15 terms at delta=2**-7 and ``reach``
    4/3 of ``2*delta``, 99 at the largest ``reach``, ``_SERIES_REACH``.
    The samples that one ``x``'s window cut drops and another's keeps weigh
    below ``exp(-36)``.
    """
    g = source.grid
    d, half = source.noise.delta, source.noise.s_half
    x0, y0 = z0.real, z0.imag
    # a window past the samples' end belongs to a point the domain refuses
    lo = max(math.ceil((x0 - reach - WINDOW_T) / d - 1e-12), -half)
    hi = min(math.floor((x0 + reach + WINDOW_T) / d + 1e-12), half)
    u = d * np.arange(lo, hi + 1) - x0
    phase = _waves(np.array([2.0 * d * y0]), lo, u.size)[0]
    b = source.samples[lo + half : hi + half + 1] * window(u) * phase
    # exp's series at |2*u_s*zeta| <= x leaves at most x**n/n! * exp(x)
    # after n terms
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

    def magnitudes(xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        _check_domain(g, xs, ys)
        p, q = xs - x0, ys - y0
        zeta = (p[None, :] + 1j * q[:, None]).ravel()
        # row m is zeta**m: zeta**(n + k) = zeta**(k + 1) * zeta**(n - 1) gives
        # rows n .. 2n - 2 from the n already there, in about log2(terms) products
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


def refine_zero(
    source: FieldSource,
    z0: complex,
    radius: float,
    levels: int,
) -> tuple[complex, float]:
    """Minimise the weighted magnitude over nested square searches.

    Each pass evaluates a 9x9 grid over the square of the current radius
    centred at the best point so far, then shrinks the radius fourfold;
    ``levels`` extra passes follow the initial one.  A pass moves to its
    first minimum in row-major order (``dy`` outer, ``dx`` inner), and only
    if that is strictly below the best magnitude so far.  The returned
    minimum is non-increasing in ``levels`` because every finer grid
    contains its own centre.

    Every pass's grid lies within ``4/3 * radius`` of ``z0``, so up to
    ``_SERIES_REACH`` of it the start's magnitude and all the passes read
    one Taylor series about ``z0`` (:func:`_series_magnitudes`), formed
    once, and no lattice sum is taken; a wider search sums the lattice at
    its start and at every pass.  A pass's offsets are the first pass's
    times ``4**-k``, the same bits as a grid spread over the shrunk radius.
    """
    g = source.grid
    if not radius >= g.delta:
        raise ConfigError(f"radius {radius} below grid spacing {g.delta}")
    if not isinstance(levels, numbers.Integral) or levels < 0:
        raise ConfigError(f"levels must be an integer >= 0, got {levels!r}")
    best = complex(z0)
    _check_domain(g, np.array([best.real, best.imag]))
    reach = 4.0 / 3.0 * radius
    if reach <= _SERIES_REACH:
        magnitudes = _series_magnitudes(source, best, reach)
        best_mag = magnitudes.centre
    else:
        best_mag = abs(evaluate_continuous(source, best))

        def magnitudes(xs, ys):
            return np.abs(_evaluate_lattice(source, xs, ys))
    offs = np.linspace(-radius, radius, 9)
    for _ in range(levels + 1):
        xs, ys = best.real + offs, best.imag + offs
        mags = magnitudes(xs, ys)
        i, j = divmod(int(mags.argmin()), 9)
        if mags[i, j] < best_mag:
            best, best_mag = complex(xs[j], ys[i]), float(mags[i, j])
        offs = offs * 0.25  # exact: a power of 2
    return best, best_mag


# ---------------------------------------------------------------------------
# binary field cache
#
# One JSON header line (sorted keys, so reruns are byte-identical), then the
# raw row-major array bytes.  The header carries enough to regenerate the
# noise, so a cache round-trip restores continuous re-evaluation too.

_MAGIC = "wfield-v1"
#: the dtype every cache is written in: a complex64 cache would differ from
#: the realization its header regenerates by about 1e-7 of its size
_DTYPE = "complex128"
#: the dtypes read, since earlier versions could also write complex64
_PRECISIONS = ("complex64", _DTYPE)


def cache_header(grid: GridSpec, signal: SignalModel, sigma: float, seed: int | None) -> dict:
    """The header of the cache of realization ``seed`` (None: no noise) of
    ``signal`` plus noise of level ``sigma`` on ``grid``, as
    :func:`read_header` reads it back."""
    return dict(format=_MAGIC, L=grid.L, delta=grid.delta, T=WINDOW_T, sigma=sigma, seed=seed,
                signal=signal.descriptor(), precision=_DTYPE, n_axis=grid.n_axis)


def write_field(field: WeightedField, path) -> None:
    """Cache ``field``, whose source (its realization) the header records."""
    src = field.source
    if src is None:
        raise ConfigError("a field without a source records no realization to cache")
    header = cache_header(field.grid, src.signal, src.noise.sigma, src.noise.seed)
    # written through the buffer protocol without a bytes copy
    payload = np.ascontiguousarray(field.values, dtype=_DTYPE)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def _parse_header(path, line: bytes) -> dict:
    try:
        header = json.loads(line)
    except ValueError as e:  # bad JSON or bytes that are not UTF-8
        raise DataError(f"{path}: corrupt field cache: {e!r}") from e
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise DataError(f"{path}: not a {_MAGIC} cache")
    if "seed" in header and header["seed"] is None:
        header["sigma"] = 0.0  # no noise: earlier versions recorded a placeholder 1.0
    return header


def read_header(path) -> dict:
    """The JSON header line of the field cache at ``path``; a cache without
    noise (``"seed": null``) reads as ``"sigma": 0.0``."""
    with open(path, "rb") as fh:
        return _parse_header(path, fh.readline())


def read_field(path) -> WeightedField:
    """Load a cached field and regenerate its realization: the noise of the
    header's seed, or none for a ``"seed": null`` cache.

    The payload's size is checked against the file's before anything is
    allocated, and the samples are read straight into a fresh array.
    """
    try:
        with open(path, "rb") as fh:
            header = _parse_header(path, fh.readline())
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            grid = make_grid(L=header["L"], delta=header["delta"], T=header["T"])
            n, precision = header["n_axis"], header["precision"]
            if n != grid.n_axis:
                raise DataError(f"{path}: header axis count {n} inconsistent with grid")
            if precision not in _PRECISIONS:
                raise DataError(f"{path}: unknown precision {precision!r}")
            want = n * n * np.dtype(precision).itemsize
            if size != want:
                raise DataError(f"{path}: payload size {size} bytes, not the {want} "
                                f"of {n}*{n} {precision} samples")
            values = np.empty((n, n), dtype=precision)
            if fh.readinto(values) != want:
                raise DataError(f"{path}: payload size changed while it was read")
        if header["seed"] is None:
            noise, signal = zero_noise(grid), parse_signal(header["signal"])
        else:
            noise = draw_noise(grid, header["sigma"], header["seed"])
            signal = parse_signal(header["signal"], sigma=noise.sigma)
        source = FieldSource(noise, signal, grid)
    except ConfigError as e:  # values the grid, signal, noise or source reject
        raise DataError(f"{path}: {e}") from e
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        # a missing key or a value of the wrong type (a null signal too)
        raise DataError(f"{path}: corrupt field cache: {e!r}") from e
    values = values.astype(np.complex128, copy=False)
    return WeightedField(grid=grid, values=values, source=source)
