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
``phi(delta*m) * exp(2j*m*ll*delta^2)``, so over a strip of rows it is the
inverse FFT of the strip's samples' spectrum times the window's.  By
Poisson summation the window's spectrum at angle ``theta`` is the
periodised Gaussian ``sqrt(2)/delta * sum_i exp(-((theta +
2*pi*i)/(2*delta))^2)``, in closed form up to the samples cut at ``|t| >
T``, about 2e-17 of its peak at delta=2^-8.  It is a bump (the window's
time-frequency area is small) that moves with ``ll``, so one band of
``S`` bins holds the bumps of every column of a half of the columns: 61
to 66 bins at L=3 for delta from 2^-6 to 2^-8, every bin at delta >= 1/4.
:func:`synthesize_field` takes the field in strips of 128 rows, each
reading only its own samples, and per strip and half one matrix product:
the strip's rows of the band's inverse DFT times the strip's spectrum on
the band, by the ``(S, n/2)`` real window spectra times the strip's row
phase, then the rest of the quadratic phase (:func:`_spectral_columns`).
The products run on NumPy's BLAS and its threads
(``OPENBLAS_NUM_THREADS``); the output bits do not depend on their
number.  Its reference is the direct sum at the grid's points,
``_evaluate_lattice(source, axis, axis).T``, the sum that
:func:`evaluate_continuous` evaluates anywhere.  That sum takes its
exponentials from two short tables per ``y`` (:func:`_waves`, a few ulp
off the direct exponential), and the tests check it against the per-point
sum to 1e-13 relative.  :func:`refine_zero`'s nested searches, their
start's magnitude included, read the same sum as a Taylor series about
their start, whose moments are formed once per call with phases from the
same tables (:func:`_series_moments`), so a short search takes no
lattice sum at all.  Every evaluation is refused outside the stored
domain ``[-L, L]^2``, NaN included.  One scalar test states the domain
(:func:`_in_domain`): the search applies it to its start and to the ends
of each pass's ascending axes as floats, and :func:`_check_domain` to an
array's largest magnitude, and words the refusal.  The transforms are
NumPy's FFTs (the C++ pocketfft, which NumPy 2.0 and later ships).

Everything synthesis needs that depends on the grid alone, the band
included, is built once per grid and kept for the last two grids used
(the synthesis plan, :func:`_plan`): per half, the window spectra on its
band, ``8 * S * n/2`` bytes, and the band's inverse DFT over the tallest
strip's rows, and the quadratic phase's ramp over the same rows, ``16 *
129 * n`` bytes at n=1537: 4.2 MB in all there.

One realization is one :class:`FieldSource`: grid, signal, sigma and
seed, from which its samples are drawn, and refused by a closed-form
overflow bound that reads no plan.  A field cache
(:func:`write_field`) is one JSON header line, the source's fields
(:attr:`FieldSource.header`) that :func:`read_field` regenerates it from,
then the complex128 samples.  This module alone builds and reads the
header, and refuses the complex64 caches and the noiseless headers with
a placeholder sigma that earlier versions wrote.
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
from .signal import SignalKind, SignalModel, parse_signal, sample_signal

_WINDOW_NORM = math.sqrt(2.0 / math.pi)


def window(t):
    """The truncated analysis window ``sqrt(2/pi)*exp(-t^2)`` (caller
    guarantees ``|t| <= WINDOW_T``)."""
    t = np.asarray(t, dtype=np.float64)
    return _WINDOW_NORM * np.exp(-t * t)


@dataclass(frozen=True)
class FieldSource:
    """One realization of "signal plus complex white noise" on ``grid``: the
    noise of level ``sigma`` drawn from ``seed``, or none for ``seed=None``,
    whose ``sigma`` is 0.  Its fields are the keys of its cache's
    :attr:`header`; its :attr:`samples` are drawn when first read, and
    refused then if the field could overflow in synthesis.
    """

    grid: GridSpec
    signal: SignalModel
    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.seed is None:
            if self.sigma != 0:
                raise ConfigError(f"a source without a seed has no noise: sigma must be 0, "
                                  f"got {self.sigma}")
        elif not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        elif self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @cached_property
    def samples(self) -> np.ndarray:
        """``a_s = w_s + delta * f1(delta*s)`` for ``|s| <= T/delta +
        L/delta``, every sample the field reads: row ``kk`` reads ``a[kk +
        half_n : kk + half_n + 2*T/delta + 1]``.  The noise ``w_s`` is
        bit-reproducible in ``seed``, with variance ``sigma^2 * delta *
        sqrt(pi/2)`` split evenly between the real and imaginary parts.

        They are refused if ``|a|_1 * (2/sqrt(pi) + 2/delta)``, which is at
        least ``|a|_1 * sqrt(2) * sum(phi)`` (``sum_{|m| <= M}
        exp(-(delta*m)**2) <= 1 + sqrt(pi)/delta``), exceeds half the float64
        maximum.  That bounds every partial sum of synthesis's products, real
        and imaginary parts together (a strip's ``|fft|`` is at most
        ``|a|_1``, each weight ``sum(phi)/nfft``), and of the lattice sum,
        and with the factor 2 those of the series, below ``|a|_1 *
        sqrt(2/pi) * e**2`` within ``_SERIES_REACH``.
        """
        g = self.grid
        half = g.t_over_delta + g.half_n
        with np.errstate(over="ignore", invalid="ignore"):  # the bound refuses inf and nan
            a = g.delta * sample_signal(self.signal, g.delta * np.arange(-half, half + 1))
            if self.seed is not None:
                rng = np.random.default_rng(self.seed)
                scale = self.sigma * math.sqrt(g.delta * math.sqrt(math.pi / 2.0) / 2.0)
                a += scale * (rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size))
            bound = np.abs(a).sum() * (2.0 / math.sqrt(math.pi) + 2.0 / g.delta)
        if not bound <= np.finfo(np.float64).max / 2:
            raise ConfigError("signal amplitude or sigma so large that synthesis could overflow")
        a.setflags(write=False)
        return a

    @property
    def header(self) -> dict:
        """The header of this realization's field cache, as
        :func:`read_header` reads it back."""
        g = self.grid
        return dict(format=_MAGIC, L=g.L, delta=g.delta, T=WINDOW_T, sigma=self.sigma,
                    seed=self.seed, signal=self.signal.descriptor(), precision=_DTYPE,
                    n_axis=g.n_axis)


def draw_noise(grid: GridSpec, sigma: float, seed: int) -> FieldSource:
    """The noise of level ``sigma`` drawn from ``seed`` on ``grid``, alone:
    its source has the zero signal."""
    return FieldSource(grid, SignalModel(SignalKind.ZERO), sigma, seed)


def zero_noise(grid: GridSpec) -> FieldSource:
    """No noise (for synthesising pure-signal fields): the source of the
    zero signal with no seed and ``sigma`` 0."""
    return FieldSource(grid, SignalModel(SignalKind.ZERO))


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
        # a non-finite element makes its column's sum, and so the sum of the
        # column sums, inf or NaN, so the elementwise test runs only on the
        # rare array whose sum is not finite (some have no non-finite
        # element: the sum of two 1e308 overflows); the column sums are one
        # product with a vector of ones, which reads the array on the BLAS's
        # threads, in about 2 of the 5 ms that NumPy's sum takes at n=1537
        with np.errstate(over="ignore", invalid="ignore"):
            total = (np.ones(n) @ v).sum()
        if not np.isfinite(total) and not np.isfinite(v).all():
            raise DataError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def seed(self) -> int | None:
        return self.source.seed if self.source is not None else None


def synthesize_field(noise: FieldSource, signal: SignalModel, grid: GridSpec) -> WeightedField:
    """Synthesize the weighted field of ``signal`` plus the noise of
    ``noise``, a source on ``grid``.  The field's source is ``noise`` itself
    when its signal is ``signal``, so its samples are drawn once, and else
    the source of ``signal`` with ``noise``'s sigma and seed.

    The field is one matrix product of the samples' spectrum on one band of
    bins (:func:`_spectral_columns`); the direct sum at the grid's points,
    ``_evaluate_lattice(source, axis, axis).T``, is the reference.  Samples
    that could overflow it are refused before the first FFT.
    """
    if noise.grid != grid:
        raise ConfigError(f"noise drawn on {noise.grid}, not on {grid}")
    source = noise if noise.signal == signal else FieldSource(grid, signal, noise.sigma, noise.seed)
    values = _spectral_columns(source.samples, grid)
    return WeightedField(grid=grid, values=values, source=source)


#: output rows per strip of :func:`_spectral_columns`, each the transform of
#: its own samples; a strip of one row would go to zgemv, whose bits depend
#: on the BLAS thread count, so a one-row tail joins the strip before it
_STRIP_ROWS = 128

#: grids whose synthesis plan is kept, so a caller alternating between a
#: fine grid and one other grid rebuilds neither
_PLAN_GRIDS = 2

#: share of a column's spectral energy its band may leave out: the dropped
#: bins then move a value by about sqrt(2**-100) ~ 1e-15 of its size, the
#: order of the rounding already there
_BAND_TAIL = 2.0**-100


def _periodised_gauss(theta, delta: float):
    """``sum_i exp(-((theta + 2*pi*i)/(2*delta))**2)``, ``|i| <= 1``, which
    times ``sqrt(2)/delta`` is the untruncated window's spectrum at
    ``theta`` in ``[-pi, pi]`` (Poisson summation) to ``exp(-9*pi**2)`` of
    its peak at the coarsest spacing, 1/2."""
    return sum(np.exp(-(((theta + 2.0 * math.pi * i) / (2.0 * delta)) ** 2)) for i in (-1, 0, 1))


def _band_width(phi: np.ndarray, delta: float, nfft: int) -> int:
    """Bins kept per column: the fewest ``2*h + 1`` (at most ``nfft``) whose
    complement holds at most ``_BAND_TAIL`` of any column's energy.

    A column's spectrum (:func:`_periodised_gauss`) is sampled at bin steps
    from an off-grid centre, so a band of ``2*h + 1`` bins drops, on each
    side, one bin at each distance of at least ``h + 1/2, h + 3/2, ...``,
    and the Gaussian falls with the distance.  A column's energy is ``nfft
    * sum(phi**2)`` (Parseval).  At delta >= 1/3 the band is every bin.  The
    bound is analytic because a computed spectrum's rounding floor, about
    1e-16 of its peak, lies above the tail it would measure.
    """
    omega = (2.0 * math.pi / nfft) * (np.arange((nfft + 1) // 2) + 0.5)
    bound = (math.sqrt(2.0) / delta) * _periodised_gauss(omega, delta)
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


def _strips(n: int) -> tuple:
    """The ``(r0, r1)`` row ranges of :func:`_spectral_columns`' strips:
    ``_STRIP_ROWS`` rows each, the last up to one more."""
    starts = range(0, n - 1, _STRIP_ROWS)
    return tuple(zip(starts, [*starts[1:], n]))


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _plan(grid: GridSpec):
    """The arrays of :func:`_spectral_columns` that depend on ``grid`` alone.

    A strip of ``R`` rows reads ``R + 2*M`` samples, so every strip's FFT
    takes ``nfft``, the fast length for the tallest strip.  Column ``ll``'s
    window spectrum is a bump at bin ``-delta**2*ll*nfft/pi`` on a band of
    ``width`` bins (:func:`_band_width`) that moves down as ``ll`` grows, so
    each half of the columns, ``c0 <= c < c1``, has one band that holds its
    columns' bands: the ``span`` bins ``k_j``, from its last column's band
    to its first's, at most every bin (n >= 5, so each half has two columns
    or more).

    Returns ``nfft``; for each half its ``c0``, ``c1``, its band's bins
    ``k_j``, the weights ``W[j, c]``, column ``ll = c0 + c - half_n``'s
    window spectrum ``sum_m phi(delta*m) * exp(1j*m*theta) / nfft`` at
    ``theta = 2*delta**2*ll + 2*pi*b_j/nfft`` on the band, ``8 * span * (c1
    - c0)`` bytes, and, for the rows ``r`` of the tallest strip, the table
    ``tab[r, j] = exp(2j*pi*((r + M)*k_j % nfft)/nfft)``; and the phase ramp
    ``ramp[r, c] = exp(1j*delta**2*r*ll)`` over the same rows, 16 bytes
    each: 4.2 MB in all at n=1537, 3.2 MB of it the ramp.

    The weights are in closed form, the periodised Gaussian
    (:func:`_periodised_gauss`) times ``sqrt(2)/(delta*nfft)`` at ``theta``
    wrapped into ``[-pi, pi]``.  The samples cut at ``|t| > T`` weigh about
    2e-17 of the peak at delta=2**-8.  Each bin ``b_j`` is the signed
    integer in ``(-nfft/2, nfft/2]`` before it is scaled, since the
    Gaussian's slope would turn the rounding of a larger ``theta`` into a
    relative error of about 1e-13.  A row of weights is built at a time,
    and all arrays are read-only, since every caller on the grid shares
    them.
    """
    n, m_half, delta = grid.n_axis, grid.t_over_delta, grid.delta
    rows = np.arange(max(r1 - r0 for r0, r1 in _strips(n)))[:, None]
    nfft = _next_fast_len(rows.size + 2 * m_half)
    width = _band_width(window(delta * np.arange(-m_half, m_half + 1)), delta, nfft)
    ll = np.arange(-(n // 2), n // 2 + 1)
    # the first bin of each column's own band
    first = np.rint(ll * (-delta * delta * nfft / math.pi)).astype(np.int64) - width // 2
    halves = []
    for c0, c1 in ((0, n // 2 + 1), (n // 2 + 1, n)):
        span = min(int(first[c0] - first[c1 - 1]) + width, nfft)
        k = (first[c1 - 1] + np.arange(span)) % nfft
        bins = (k + (nfft - 1) // 2) % nfft - (nfft - 1) // 2
        slope = (2.0 * delta * delta) * ll[c0:c1]
        weights = np.empty((span, c1 - c0))
        for row, b in zip(weights, bins):
            theta = slope + (2.0 * math.pi / nfft) * b
            theta -= (2.0 * math.pi) * np.rint(theta / (2.0 * math.pi))
            row[:] = _periodised_gauss(theta, delta)
        weights *= math.sqrt(2.0) / (delta * nfft)
        tab = np.exp((2j * math.pi / nfft) * ((rows + m_half) * k % nfft))
        for a in (k, weights, tab):
            a.setflags(write=False)
        halves.append((c0, c1, k, weights, tab))
    ramp = np.exp((1j * delta * delta) * (rows * ll))
    ramp.setflags(write=False)
    return nfft, tuple(halves), ramp


def _spectral_columns(alpha, grid: GridSpec):
    """The whole field ``exp(1j*d2*kk*ll) * sum_m alpha[i + M + m] * g_ll[m]``,
    ``g_ll[m] = phi(delta*m) * exp(2j*d2*m*ll)``, in strips of rows.

    Row ``i = r0 + r`` (``kk = i - half_n``) of column ``ll`` is the
    correlation of the strip's samples ``beta = alpha[r0 : r1 + 2*M]`` with
    the column's modulated window, so with ``B = fft(beta, nfft)`` it is
    ``sum_k B[k] * G_ll[k] * exp(2j*pi*k*(r + M)/nfft) / nfft`` for the
    window's spectrum about sample 0, ``G_ll[k] = sum_m g_ll[m] *
    exp(2j*pi*k*m/nfft)``; ``nfft >= r1 - r0 + 2*M`` keeps the circular
    correlation from wrapping.  Only a half's band of bins ``k_j`` holds its
    columns' ``G_ll``, which :func:`_plan` keeps over ``nfft`` as the real
    weights ``W``, so the strip is

        V[i, c] = ramp[r, c] * sum_j (tab[r, j] * B[k_j]) * (W[j, c] * e[c])

    with the plan's table ``tab[r, j] = exp(2j*pi*(r + M)*k_j/nfft)``, the
    same for every strip, and the strip's row phase ``e[c] =
    exp(1j*d2*(r0 - half_n)*ll)``: per half, one product of the table
    scaled by the band of ``B`` with the weights scaled by the row phase,
    then the plan's ramp ``exp(1j*d2*r*ll)`` over the strip while it is
    still in cache.

    The products run on NumPy's BLAS, on its threads; a product of two or
    more rows sums each element in one order whatever their number, so the
    output bits do not depend on it.
    """
    n, m_half = grid.n_axis, grid.t_over_delta
    nfft, halves, ramp = _plan(grid)
    d2 = grid.delta * grid.delta
    ll = np.arange(-(n // 2), n // 2 + 1)
    out = np.empty((n, n), dtype=np.complex128)
    for r0, r1 in _strips(n):
        spectrum = np.fft.fft(alpha[r0 : r1 + 2 * m_half], nfft)
        phase = np.exp((1j * d2 * (r0 - n // 2)) * ll)
        strip = out[r0:r1]
        for c0, c1, k, weights, tab in halves:
            np.matmul(tab[: r1 - r0] * spectrum[k], weights * phase[c0:c1], out=strip[:, c0:c1])
        strip *= ramp[: r1 - r0]
    return out


#: length of the short table of :func:`_waves`: a y's exponentials over
#: ``S`` samples come from ``ceil(S/_TABLE) + _TABLE`` of them, 89 instead
#: of 1541 at delta=2**-7, T=6
_TABLE = 64


def _in_domain(L: float, *coords) -> bool:
    """Whether every coordinate lies in the stored domain's ``[-L, L]``;
    a NaN does not."""
    for c in coords:  # a loop: all() over a generator adds 1 us a pass
        if not abs(c) <= L:
            return False
    return True


def _check_domain(g: GridSpec, *axes) -> None:
    """Refuse the first coordinate of ``axes`` outside :func:`_in_domain`."""
    for axis in axes:
        if not _in_domain(g.L, np.abs(axis).max(initial=0.0)):  # NaN propagates
            bad = next(c for c in axis if not _in_domain(g.L, c))
            raise ConfigError(
                f"coordinate {bad} outside the stored domain (halfwidth {g.L})"
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
    d, half = g.delta, source.samples.size // 2
    # per-x window index ranges, as |t_s - x| <= T with a rounding guard
    lo = np.ceil((xs - WINDOW_T) / d - 1e-12).astype(np.int64)
    hi = np.floor((xs + WINDOW_T) / d + 1e-12).astype(np.int64)
    s0, s1 = lo.min(), hi.max()
    size = s1 - s0 + 1
    t = d * np.arange(s0, s1 + 1)
    a = source.samples[s0 + half : s1 + half + 1]
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


#: the largest sup-norm distance from its centre at which the series of
#: :func:`_series_moments` is used: at distance ``r`` its terms reach
#: about ``exp(2*r**2)`` of the sum's scale, and its rounding with them
_SERIES_REACH = 1.0


def _series_moments(source: FieldSource, z0: complex, reach: float) -> np.ndarray:
    """The moments ``M_m`` of the Taylor series of ``V`` about ``z0``, a
    point of the stored domain, cut for every point within ``reach`` of
    ``z0`` in sup norm.

    With ``x = x0 + p``, ``y = y0 + q``, ``zeta = p + 1j*q`` and ``u_s =
    t_s - x0``, the window factors as ``phi(u_s - p) = phi(u_s) *
    exp(2*u_s*p - p**2)``, so ``|V(x, y)| = exp(-p**2) * |sum_s b_s *
    exp(2*u_s*zeta)|`` with ``b_s = a_s * phi(u_s) * exp(2j*y0*t_s)``, and
    the sum is the power series ``sum_m M_m * zeta**m`` with moments ``M_m
    = sum_s b_s * (2*u_s)**m / m!``; so ``|V(z0)| = |M_0|``.  The phases
    ``exp(2j*y0*t_s)`` come from the lattice sum's two short tables
    (:func:`_waves`).  The moments are formed over the union of the windows
    within ``reach``, and cut where the series' remainder is below
    ``2**-60`` of the sum's scale: 15 terms at delta=2**-7 and ``reach``
    4/3 of ``2*delta``, 99 at the largest ``reach``, ``_SERIES_REACH``.
    The samples that one ``x``'s window cut drops and another's keeps weigh
    below ``exp(-36)``.
    """
    g = source.grid
    d, half = g.delta, source.samples.size // 2
    x0, y0 = z0.real, z0.imag
    # a window past the samples' end belongs to a point the domain refuses
    lo = max(math.ceil((x0 - reach - WINDOW_T) / d - 1e-12), -half)
    hi = min(math.floor((x0 + reach + WINDOW_T) / d + 1e-12), half)
    u = d * np.arange(lo, hi + 1) - x0
    phase = _waves(np.array([2.0 * d * y0]), lo, u.size)[0]
    b = source.samples[lo + half : hi + half + 1] * window(u) * phase
    # exp's series at |2*u_s*zeta| <= x leaves at most x**n/n! * exp(x)
    # after n terms; u ascends, so its largest magnitude is at an end
    x = 2.0 * math.sqrt(2.0) * reach * max(abs(float(u[0])), abs(float(u[-1])))
    terms, tail = 1, x * math.exp(x)
    while tail > 2.0**-60:
        tail *= x / (terms + 1)
        terms += 1
    powers = np.empty((terms, u.size))
    powers[0] = 1.0
    for m in range(1, terms):
        np.multiply(powers[m - 1], (2.0 / m) * u, out=powers[m])
    return (powers @ b.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


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

    Every pass's grid lies within ``4/3 * radius`` of ``z0``, so the
    start's magnitude and all the passes read one Taylor series about
    ``z0`` (:func:`_series_moments`), formed once, and no lattice sum is
    taken; a radius whose search reaches past ``_SERIES_REACH`` is refused.
    A pass's offsets are the first pass's times ``4**-k``, the same bits as
    a grid spread over the shrunk radius.

    The start, and each pass's grid before it is evaluated, must lie in
    the stored domain: the start's coordinates and the ends of the grid's
    ascending axes are tested as floats (:func:`_in_domain`, which a NaN
    fails), and :func:`_check_domain` names the first coordinate outside.
    """
    g = source.grid
    if not radius >= g.delta:
        raise ConfigError(f"radius {radius} below grid spacing {g.delta}")
    if not 4.0 / 3.0 * radius <= _SERIES_REACH:
        raise ConfigError(f"radius {radius} above {0.75 * _SERIES_REACH}, whose search "
                          f"reaches past the series about its start")
    if not isinstance(levels, numbers.Integral) or isinstance(levels, bool) or levels < 0:
        raise ConfigError(f"levels must be an integer >= 0, got {levels!r}")
    best = complex(z0)
    x0, y0 = best.real, best.imag
    if not _in_domain(g.L, x0, y0):
        _check_domain(g, np.array([x0, y0]))
    moments = _series_moments(source, best, 4.0 / 3.0 * radius)
    best_mag = abs(complex(moments[0]))
    # row m is zeta**m, one table for every pass: each pass writes its zeta
    # into row 1, and zeta**(n + k) = zeta**(k + 1) * zeta**(n - 1) gives rows
    # n .. 2n - 2 from the n already there, in about log2(terms) products
    zp = np.empty((moments.size, 81), dtype=np.complex128)
    zp[0] = 1.0
    zeta = zp[1].reshape(9, 9)
    offs = np.linspace(-radius, radius, 9)
    for _ in range(levels + 1):
        xs, ys = best.real + offs, best.imag + offs
        # both ascend, so their ends bound them
        if not _in_domain(g.L, xs[0], xs[-1], ys[0], ys[-1]):
            _check_domain(g, xs, ys)
        p = xs - x0
        np.add(p, 1j * (ys - y0)[:, None], out=zeta)
        n = 2
        while n < moments.size:
            k = min(n - 1, moments.size - n)
            np.multiply(zp[1 : k + 1], zp[n - 1], out=zp[n : n + k])
            n += k
        mags = np.exp(-p * p) * np.abs(moments @ zp).reshape(9, 9)
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
#: the dtype every cache is written and read in: the complex64 caches that
#: earlier versions could write differ from the realization their header
#: regenerates by about 1e-7 of its size
_DTYPE = "complex128"


def write_field(field: WeightedField, path) -> None:
    """Cache ``field``, whose source (its realization) the header records."""
    src = field.source
    if src is None:
        raise ConfigError("a field without a source records no realization to cache")
    # written through the buffer protocol without a bytes copy
    payload = np.ascontiguousarray(field.values, dtype=_DTYPE)
    with open(path, "wb") as fh:
        fh.write(json.dumps(src.header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def _parse_header(path, line: bytes) -> dict:
    try:
        header = json.loads(line)
    except ValueError as e:  # bad JSON or bytes that are not UTF-8
        raise DataError(f"{path}: corrupt field cache: {e!r}") from e
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise DataError(f"{path}: not a {_MAGIC} cache")
    if "seed" in header and header["seed"] is None and header.get("sigma") != 0.0:
        # a placeholder that would pool the cache with noisy ones of that sigma
        raise DataError(f"{path}: a cache without noise (\"seed\": null) that records sigma "
                        f"{header.get('sigma')!r}, as earlier versions did; simulate it again")
    if header.get("precision") != _DTYPE:
        raise DataError(f"{path}: {header.get('precision')!r} samples, not {_DTYPE}; the complex64 "
                        f"caches of earlier versions are not read, simulate them again")
    return header


def read_header(path) -> dict:
    """The JSON header line of the field cache at ``path``; the cache must
    hold complex128 samples, and one without noise (``"seed": null``) must
    record ``"sigma": 0.0``."""
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
            n = header["n_axis"]
            if n != grid.n_axis:
                raise DataError(f"{path}: header axis count {n} inconsistent with grid")
            want = n * n * np.dtype(_DTYPE).itemsize
            if size != want:
                raise DataError(f"{path}: payload size {size} bytes, not the {want} "
                                f"of {n}*{n} {_DTYPE} samples")
            values = np.empty((n, n), dtype=_DTYPE)
            if fh.readinto(values) != want:
                raise DataError(f"{path}: payload size changed while it was read")
        source = FieldSource(grid, parse_signal(header["signal"]), header["sigma"], header["seed"])
        source.samples  # drawn here, so a realization that could overflow is data refused
    except ConfigError as e:  # values the grid, signal or source reject
        raise DataError(f"{path}: {e}") from e
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        # a missing key or a value of the wrong type (a null signal too)
        raise DataError(f"{path}: corrupt field cache: {e!r}") from e
    return WeightedField(grid=grid, values=values, source=source)
