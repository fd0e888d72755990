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
bump (its time-frequency area is small), so only a band of bins enters the
product: 69 of 4620 at n=1537, every bin at delta >= 1/3; the bump moves
with ``ll``, so a block of columns shares one band a few bins wider (70 at
n=1537, every bin at delta >= 1/4).  Of that inverse FFT's outputs only
the column's ``n`` are kept, so
:func:`synthesize_field` evaluates each column as a chirp z-transform
(Bluestein) of its block's band, whose length is about ``n + B`` for ``B``
bins (1620 at n=1537) where the inverse FFT's is about ``n + 2*M``
(4620).  Its reference is the direct sum at the grid's points,
``_evaluate_lattice(source, axis, axis).T``, the sum that
:func:`evaluate_continuous` evaluates anywhere.  That sum takes its
exponentials from two short tables per ``y`` (:func:`_waves`, a few ulp
off the direct exponential), and the tests check it against the per-point
sum to 1e-13 relative.  :func:`refine_zero`'s nested searches, their
start's magnitude included, read the same sum as a Taylor series about
their start, whose moments are formed once per call with phases from the
same tables (:func:`_series_magnitudes`), so a short search takes no
lattice sum at all.  The transforms are NumPy's FFTs (the C++
pocketfft, which NumPy 2.0 and later ships), written in place into the
blocks' buffers.
Synthesis runs its column blocks on one thread per CPU the process may
use; its output bits do not depend on the CPU count.

Everything synthesis needs that depends on the grid alone is built once
per grid and kept for the last two grids used (the synthesis plan): each
column's window spectrum on its block's band, ``n * B * 16`` bytes (``B``
is ``nfft``, about ``n + 2*M``, at delta >= 1/4), the in-block phase ramp,
``n * _BLOCK_COLS * 16`` bytes, and the chirp z-transform's kernel: about
``n * (B + _BLOCK_COLS) * 16`` bytes in all, 2.5 MB at n=1537.

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
from concurrent.futures import ThreadPoolExecutor
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
            bound = np.abs(self.alpha).sum() * _bands(g.n_axis, g.t_over_delta, g.delta)[-1]
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

    Each column is one chirp z-transform of its block's band of the
    samples' spectrum (:func:`_spectral_columns`); the direct sum at the
    grid's points, ``_evaluate_lattice(source, axis, axis).T``, is the
    reference.  ``FieldSource`` refuses, before the first FFT, samples that
    could overflow it.
    """
    source = FieldSource(noise=noise, signal=signal, grid=grid)
    values = _spectral_columns(source.alpha, grid.t_over_delta, grid.delta, grid.n_axis)
    return WeightedField(grid=grid, values=values, source=source)


#: columns per synthesis block; each worker thread owns one (_BLOCK_COLS,
#: K) transform buffer and one (_BLOCK_COLS, n) phase buffer, so this
#: bounds the per-thread working set (1.6 MB at n=1537)
_BLOCK_COLS = 32

#: grids whose synthesis plan is kept, so a caller alternating between a
#: fine grid and one other grid rebuilds neither
_PLAN_GRIDS = 2

#: share of a column's spectral energy its band may leave out: the dropped
#: bins then move a value by about sqrt(2**-100) ~ 1e-15 of its size, the
#: order of the rounding already there
_BAND_TAIL = 2.0**-100


def _cpu_budget() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


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


def _next_fast_len(target: int, real: bool = False) -> int:
    """The smallest length ``>= target`` (``target >= 1``) that pocketfft
    transforms fastest: one whose prime factors are at most 11, or at most
    5 for ``real=True``."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    n = target
    while True:
        k = n
        for p in primes:
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _chirp(q2: np.ndarray, nfft: int) -> np.ndarray:
    """``exp(1j*pi*q2/nfft)`` for integers ``q2``, reduced mod ``2*nfft``
    before the float multiply: ``pi*q2/nfft`` itself reaches about 1e4 rad,
    whose rounding alone would move a value by about 1e-12 of its size."""
    return np.exp(1j * ((math.pi / nfft) * (q2 % (2 * nfft))))


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _bands(n: int, m_half: int, delta: float):
    """The sizes of :func:`_plan`, taken without its transforms.

    Column ``ll = c - half_n``'s window spectrum ``G_ll[k] = sum_q g_ll[q -
    M] * exp(2j*pi*k*q/nfft)``, ``g_ll[m] = phi(delta*m) *
    exp(2j*delta**2*m*ll)``, is a bump at bin ``-delta**2*ll*nfft/pi`` on a
    band of ``width`` bins (:func:`_band_width`) that moves down as ``ll``
    grows, so block ``b`` takes the ``span`` bins ``base[b] + j`` mod
    ``nfft`` from its last column's band to its first's, at most every bin.

    Returns ``nfft``, ``base``, ``span``, ``K`` (:func:`_plan`) and the overflow ``gain``.
    """
    nfft = _next_fast_len(n + 2 * m_half)
    phi = window(delta * np.arange(-m_half, m_half + 1))
    width = _band_width(phi, delta, nfft)
    ll = np.arange(-(n // 2), n // 2 + 1)
    first = (np.rint(ll * (-delta * delta * nfft / math.pi)).astype(np.int64) - width // 2) % nfft
    starts = np.arange(0, n, _BLOCK_COLS)
    base = first[np.minimum(starts + _BLOCK_COLS, n) - 1]
    # at delta >= 1/4 the band is every bin, and a wider one would read bins twice
    span = min(width + int(((first[starts] - base) % nfft).max()), nfft)
    nconv = _next_fast_len(n + span - 1, real=True)
    # an FFT's every intermediate is at most its input's L1 norm, so each one is
    # at most |alpha|_1 * |G_ll|_2 * sqrt(K) * max(1, K/nfft), |G_ll|_2**2 =
    # nfft * sum(phi**2) (Parseval)
    gain = math.sqrt(nfft * nconv * np.dot(phi, phi)) * max(1, nconv / nfft)
    return nfft, base, span, nconv, gain


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _plan(n: int, m_half: int, delta: float):
    """The arrays of :func:`_spectral_columns` that depend on the grid alone.

    Returns ``nfft`` and ``base`` (:func:`_bands`); ``spec``, whose row
    ``c`` holds ``G_ll`` on its block's band times the input chirp
    ``W**(j**2/2)``, ``W = exp(2j*pi/nfft)``; the chirp-z kernel
    ``fft(W**(-k**2/2)) / nfft`` over ``k = 1 - span .. n - 1``, wrapped
    into the next 5-smooth length ``K >= n + span - 1``, so the convolution
    does not wrap; and the phase ramp ``ramp[c, i] =
    exp(1j*delta**2*c*kk)``, ``kk = i - half_n``, for the in-block columns
    ``c < _BLOCK_COLS``.  ``spec`` and ``ramp`` take ``n * (span +
    _BLOCK_COLS) * 16`` bytes.  All are read-only, since every caller on
    the grid shares them.
    """
    nfft, base, span, nconv, _ = _bands(n, m_half, delta)
    p = 2 * m_half + 1
    d2 = delta * delta
    m = np.arange(-m_half, m_half + 1)
    phi = window(delta * m)
    ll = np.arange(-(n // 2), n // 2 + 1)
    chirp = _chirp(np.arange(span) ** 2, nfft)
    k = np.arange(1 - span, n)
    kernel = np.zeros(nconv, dtype=np.complex128)
    kernel[k % nconv] = _chirp(-k * k, nfft)
    kernel = np.fft.fft(kernel) / nfft
    spec = np.empty((n, span), dtype=np.complex128)
    buf = np.empty((_BLOCK_COLS, nfft), dtype=np.complex128)
    # exp(2j*d2*m*ll) for the columns ll0 + c of a block is the block's first
    # column times a fixed ramp in c, and so is the phase exp(1j*d2*kk*ll):
    # a few ulp off the direct exponential, for one exponential per sample
    # of a column instead of one per product
    cols = np.arange(_BLOCK_COLS)
    window_ramp = np.exp((2j * d2) * np.outer(cols, m))
    ramp = np.exp((1j * d2) * np.outer(cols, ll))
    for b, j0 in enumerate(range(0, n, _BLOCK_COLS)):
        j1 = min(j0 + _BLOCK_COLS, n)
        g = buf[: j1 - j0]
        np.multiply(phi * np.exp((2j * d2) * (ll[j0] * m)), window_ramp[: j1 - j0], out=g[:, :p])
        g[:, p:] = 0
        np.fft.ifft(g, axis=1, norm="forward", out=g)
        np.multiply(g[:, (base[b] + np.arange(span)) % nfft], chirp, out=spec[j0:j1])
    for a in (base, spec, kernel, ramp):
        a.setflags(write=False)
    return nfft, base, spec, kernel, ramp


def _spectral_columns(alpha, m_half, delta, n):
    """The whole field ``exp(1j*d2*kk*ll) * sum_m alpha[i + M + m] * g_ll[m]``.

    Row ``i`` (``kk = i - half_n``) of column ``ll`` is the correlation of
    ``alpha`` (``n + 2*M`` samples) with the column's modulated window, so
    with ``A = fft(alpha, nfft)`` the column is ``ifft(A * G_ll)[:n]``;
    ``nfft >= n + 2*M`` keeps the circular correlation from wrapping.  Only
    the ``span`` bins ``k_j = f + j`` mod ``nfft`` of its block's band hold
    ``G_ll`` (:func:`_plan`, ``f = base[b]``), and only ``n`` outputs are
    kept, so each column is evaluated as a chirp z-transform (Bluestein) of
    the band rather than as a length-``nfft`` inverse FFT.  ``j*i = (j**2 +
    i**2 - (i - j)**2) / 2`` turns the column into

        y[i] = W**(f*i + i**2/2) * ((x * W**(j**2/2)) conv W**(-k**2/2))[i] / nfft

    for ``x_j = A[k_j] * G_ll[k_j]``: one FFT, one product with the plan's
    kernel and one inverse FFT of length ``K``, about ``n + span``, in
    place of ``nfft``, about ``n + 2*M``.  The plan holds ``G_ll`` with its
    input chirp on the band.  The output chirp depends on the block, not
    the column, so it joins the quadratic phase: that phase is symmetric in
    ``kk`` and ``ll``, so a block's phase is laid out like its columns are,
    as rows: the block's first row ``exp(1j*d2*ll0*kk) * W**(f*i +
    i**2/2)`` times the plan's ramp; the block is then written transposed.

    Column blocks are independent, so they are spread over one thread per
    available CPU (NumPy and pocketfft release the GIL).  A block's columns
    go through the same operations, in the same operand order, whichever
    thread runs it, so the output bits do not depend on the CPU count.
    """
    nfft, base, spec, kernel, ramp = _plan(n, m_half, delta)
    half_n = n // 2
    span = spec.shape[1]
    d2 = delta * delta
    # two periods, so each block's band (span <= nfft bins from base < nfft) is a slice
    a_hat = np.tile(np.fft.fft(alpha, nfft), 2)
    idx = np.arange(-half_n, half_n + 1)
    rows = np.arange(n)
    out = np.empty((n, n), dtype=np.complex128)
    starts = range(0, n, _BLOCK_COLS)
    workers = min(_cpu_budget(), len(starts))

    # allocated here, not in the workers: worker-side allocation measured
    # about 5 MB more peak memory at n=1537
    bufs = [np.empty((_BLOCK_COLS, kernel.size), dtype=np.complex128) for _ in range(workers)]
    phases = [np.empty((_BLOCK_COLS, n), dtype=np.complex128) for _ in range(workers)]

    def run(first_block: int, buf: np.ndarray, phase: np.ndarray) -> None:
        # every product keeps the operand order of the serial reference in
        # the tests: NumPy's SIMD complex multiply is not bitwise commutative
        for j0 in starts[first_block::workers]:
            j1 = min(j0 + _BLOCK_COLS, n)
            f = int(base[j0 // _BLOCK_COLS])
            u = buf[: j1 - j0]
            np.multiply(a_hat[f : f + span], spec[j0:j1], out=u[:, :span])
            u[:, span:] = 0
            np.fft.fft(u, axis=1, out=u)
            np.multiply(u, kernel, out=u)
            np.fft.ifft(u, axis=1, out=u)
            angle = (math.pi / nfft) * (rows * (rows + 2 * f) % (2 * nfft))
            ph = phase[: j1 - j0]
            np.multiply(np.exp(1j * (d2 * (idx[j0] * idx) + angle)), ramp[: j1 - j0], out=ph)
            np.multiply(ph, u[:, :n], out=ph)
            out[:, j0:j1] = ph.T

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers), bufs, phases))  # re-raises a worker's error
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
