"""Simulation of the weighted transform of "signal + complex white noise".

The model is sampled on a time grid of spacing ``delta`` covering
``[-T-L, T+L]``: i.i.d. circular complex Gaussians ``w_s`` with
``E|w_s|^2 = sigma^2 * delta * sqrt(pi/2)`` plus the deterministic samples
``delta * f1(delta*s)``.  A truncated Gaussian window
``phi = sqrt(2/pi) * exp(-t^2)`` on ``[-T, T]`` turns these into a
discrete short-time Fourier transform, whose value at index ``(k, -j)``
times the phase ``exp(-1j*x*y)`` approximates the weighted transform
``exp(-|z|^2/2) * F(z)`` at ``z = delta*k + 1j*delta*j``.

Writing ``kk = k - half_n`` and ``ll = l - half_n`` for the signed array
indices, the stored value is

    V[k, l] = exp(1j*delta^2*kk*ll)
              * sum_{m=-M}^{M} a[kk+m] * phi(delta*m) * exp(2j*m*ll*delta^2)

with ``M = T/delta`` and ``a_s = w_s + delta*f1(delta*s)``.  The inner sum
is a chirp-Z transform in ``ll``, so the fast path evaluates it per column
with Bluestein's algorithm; the direct evaluation is kept as the reference
implementation.  The fast path runs its row blocks on one thread per CPU
the process may use; its output bits do not depend on the CPU count.

Everything in the fast path that depends on the grid alone is built once
per grid and kept for the last two grids used (the synthesis plan): the
Bluestein chirps and a table ``exp(1j*delta^2*j)`` for ``j = 0 ...
half_n^2``, from which each row's quadratic phase is read bit-identically.
The table takes ``(half_n^2 + 1) * 16`` bytes, 9.4 MB at n=1537 and
0.6 MB at n=385.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import ConfigError, DataError, DomainError
from .grid import GridSpec
from .signal import SignalModel, parse_signal, sample_signal

_WINDOW_NORM = math.sqrt(2.0 / math.pi)


def window(t):
    """The truncated analysis window ``sqrt(2/pi)*exp(-t^2)`` (caller
    guarantees ``|t| <= T``)."""
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
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    n = _noise_length(grid)
    rng = np.random.default_rng(seed)
    scale = sigma * math.sqrt(grid.delta * math.sqrt(math.pi / 2.0) / 2.0)
    w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return NoiseDraw(w=w, seed=seed, delta=grid.delta, sigma=sigma)


def zero_noise(grid: GridSpec) -> NoiseDraw:
    """An all-zero noise vector (for synthesising pure-signal fields)."""
    return NoiseDraw(
        w=np.zeros(_noise_length(grid), dtype=np.complex128),
        seed=None,
        delta=grid.delta,
        sigma=1.0,
    )


@dataclass(frozen=True)
class FieldSource:
    """Everything needed to re-evaluate one realization off the grid."""

    noise: NoiseDraw
    signal: SignalModel
    grid: GridSpec

    @cached_property
    def samples(self) -> np.ndarray:
        """``a_s = w_s + delta * f1(delta*s)`` for all stored ``s``."""
        s = np.arange(-self.noise.s_half, self.noise.s_half + 1)
        a = self.noise.w + self.noise.delta * sample_signal(self.signal, self.noise.delta * s)
        a.setflags(write=False)
        return a


@dataclass(frozen=True)
class WeightedField:
    """Samples of the weighted transform on a grid.

    ``values[k, l]`` is the weighted value at ``grid.point_of(k, l)``.
    When ``source`` is present the same realization can be evaluated at
    arbitrary points (``evaluate_continuous``) and zeros can be refined
    off-grid (``refine_zero``).
    """

    grid: GridSpec
    values: np.ndarray
    source: FieldSource | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        n = self.grid.n_axis
        if v.shape != (n, n):
            raise ConfigError(f"values shape {v.shape} does not match grid {(n, n)}")
        if not np.isfinite(v).all():
            raise DataError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def magnitudes(self) -> np.ndarray:
        m = np.abs(self.values)
        m.setflags(write=False)
        return m

    @property
    def seed(self) -> int | None:
        return self.source.noise.seed if self.source is not None else None


def synthesize_field(
    noise: NoiseDraw,
    signal: SignalModel,
    grid: GridSpec,
    fast: bool = True,
) -> WeightedField:
    """Synthesize the weighted field for one noise realization.

    ``fast=True`` evaluates the per-column sum with a chirp-Z transform;
    ``fast=False`` uses the direct phase-matrix product, which serves as
    the reference implementation.
    """
    if noise.delta != grid.delta:
        raise ConfigError(
            f"noise spacing {noise.delta} does not match grid spacing {grid.delta}"
        )
    if noise.s_half < grid.t_over_delta + grid.half_n:
        raise ConfigError("noise vector too short for this grid")

    source = FieldSource(noise=noise, signal=signal, grid=grid)
    a = source.samples
    m_half = grid.t_over_delta
    n = grid.n_axis
    d2 = grid.delta * grid.delta

    phi = window(grid.delta * np.arange(-m_half, m_half + 1))
    # row kk of the sliding window is a[s_half+kk-M : s_half+kk+M+1]
    lead = noise.s_half - m_half - grid.half_n
    windows = np.lib.stride_tricks.sliding_window_view(a, 2 * m_half + 1)[
        lead : lead + n
    ]

    if fast:
        values = _chirp_columns(windows, phi, m_half, d2, n)
    else:
        idx = np.arange(-grid.half_n, grid.half_n + 1)
        m = np.arange(-m_half, m_half + 1)
        phase = np.exp((2j * d2) * np.outer(m, idx))
        inner = (windows * phi) @ phase
        values = np.exp((1j * d2) * np.outer(idx, idx.astype(np.float64))) * inner
    return WeightedField(grid=grid, values=values, source=source)


#: rows per chirp-Z block; each worker thread owns one (_BLOCK_ROWS, nfft)
#: buffer, so this bounds the per-thread working set (128-row blocks with a
#: buffer per thread raised peak memory by a quarter at n=1537)
_BLOCK_ROWS = 32

#: grids whose synthesis plan is kept, so a caller alternating between a
#: fine grid and one other grid rebuilds neither
_PLAN_GRIDS = 2


def _cpu_budget() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=_PLAN_GRIDS)
def _plan(n: int, m_half: int, d2: float):
    """The arrays of :func:`_chirp_columns` that depend on the grid alone.

    Returns the input chirp ``u_chirp``, the output chirp ``front``, the
    transformed lag chirp ``v_hat`` and the phase table
    ``tab[j] = exp(1j*d2*j)`` for ``j = 0 ... half_n**2``.  All are
    read-only, since every caller on the grid shares them.
    """
    half_n = n // 2
    p = 2 * m_half + 1
    nfft = scipy.fft.next_fast_len(p + n - 1)
    q = np.arange(p)
    r = np.arange(n)
    u_chirp = np.exp(1j * (d2 * (q * q - 2.0 * half_n * q)))
    front = np.exp(1j * (d2 * (r * r - 2.0 * m_half * r + 2.0 * m_half * half_n)))
    # circular layout of the lag chirp: lag t = r - q lives in [-(p-1), n-1],
    # negative lags wrap to the tail of the length-nfft buffer
    v = np.zeros(nfft, dtype=np.complex128)
    v[:n] = np.exp(-1j * (d2 * (r * r)))
    tneg = np.arange(-(p - 1), 0)
    v[nfft - (p - 1) :] = np.exp(-1j * (d2 * (tneg * tneg)))
    v_hat = scipy.fft.fft(v)
    # the same expression as the direct phase, on the same float products
    tab = np.exp((1j * d2) * np.arange(half_n * half_n + 1, dtype=np.float64))
    for a in (u_chirp, front, v_hat, tab):
        a.setflags(write=False)
    return u_chirp, front, v_hat, tab


def _phase_rows(tab, kks, half_n, out) -> None:
    """Write ``exp(1j*d2*kk*ll)`` for each ``kk`` in ``kks`` into ``out``.

    The row of ``kk > 0`` at ``ll >= 0`` is ``tab[0 : kk*half_n + 1 : kk]``,
    a strided view, and at ``ll < 0`` the reversed conjugate of that view;
    a row of ``kk < 0`` is the conjugate of the row of ``|kk|``.  This is
    bitwise the direct phase because ``kk*ll*d2`` is formed from the same
    exact integer product and NumPy's complex ``exp`` satisfies
    ``exp(-1j*y) == conj(exp(1j*y))`` bitwise.  A zero product, ``+0.0``
    or ``-0.0``, gives the argument ``(+-0.0) + 0.0j`` there, so its phase
    is ``tab[0]`` with a positive zero imaginary part and must not be
    conjugated.
    """
    h = half_n
    for row, kk in zip(out, kks):
        a = abs(int(kk))
        if a == 0:
            row[:] = tab[0]
        elif kk > 0:
            row[h:] = tab[: a * h + 1 : a]
            np.conjugate(tab[a * h : 0 : -a], out=row[:h])
        else:
            np.conjugate(tab[: a * h + 1 : a], out=row[h:])
            row[:h] = tab[a * h : 0 : -a]
            row[h] = tab[0]


def _chirp_columns(windows, phi, m_half, d2, n):
    """The whole field ``exp(1j*d2*kk*ll) * sum_m b[kk, m] * exp(2j*d2*m*ll)``.

    Bluestein's identity ``2*q*r = q^2 + r^2 - (r-q)^2`` (after shifting
    ``m`` and ``ll`` to start at zero) turns each column into one linear
    convolution, evaluated with zero-padded FFTs.  The chirp angles are
    assembled as ``d2 * integer`` products rather than as repeated powers
    of a unit complex number: for dyadic spacing those products are exact
    in floating point, which keeps this path within ~1e-14 of the direct
    sum even for long columns (a generic chirp-Z routine loses several
    digits there by amplifying the angle rounding of its ratio argument).

    The chirps, the transformed lag chirp and the phase table come from
    the per-grid plan (:func:`_plan`), built once for the last
    ``_PLAN_GRIDS`` grids.  ``kk*ll`` is an integer in ``[-half_n**2,
    half_n**2]``, so each row's quadratic phase is read from the table
    ``exp(1j*d2*j)``, ``j = 0 ... half_n**2`` (see :func:`_phase_rows`)
    instead of computing ``n*n`` complex exponentials per field.  The
    table takes ``(half_n**2 + 1) * 16`` bytes: 9.4 MB at n=1537 and
    0.6 MB at n=385, for each of the two grids kept.

    Row blocks are independent, so they are spread over one thread per
    available CPU (NumPy and pocketfft release the GIL).  A block's rows
    go through the same operations, in the same operand order, whichever
    thread runs it, so the output bits do not depend on the CPU count.
    """
    u_chirp, front, v_hat, tab = _plan(n, m_half, d2)
    half_n = n // 2
    p = 2 * m_half + 1
    nfft = v_hat.size
    idx = np.arange(-half_n, half_n + 1)
    out = np.empty((n, n), dtype=np.complex128)
    starts = range(0, n, _BLOCK_ROWS)
    workers = min(_cpu_budget(), len(starts))

    # allocated here, not in the workers: worker-side allocation measured
    # about 5 MB more peak memory at n=1537
    bufs = [np.empty((_BLOCK_ROWS, nfft), dtype=np.complex128) for _ in range(workers)]
    phases = [np.empty((_BLOCK_ROWS, n), dtype=np.complex128) for _ in range(workers)]

    def run(first: int, buf: np.ndarray, phase: np.ndarray) -> None:
        # every product keeps the operand order of the serial reference in
        # the tests: NumPy's SIMD complex multiply is not bitwise commutative
        for i0 in starts[first::workers]:
            i1 = min(i0 + _BLOCK_ROWS, n)
            u = buf[: i1 - i0]
            np.multiply(windows[i0:i1], phi, out=u[:, :p])
            u[:, :p] *= u_chirp
            u[:, p:] = 0
            u = scipy.fft.fft(u, axis=1, overwrite_x=True)
            u *= v_hat
            conv = scipy.fft.ifft(u, axis=1, overwrite_x=True)
            o = out[i0:i1]
            np.multiply(front, conv[:, :n], out=o)
            ph = phase[: i1 - i0]
            _phase_rows(tab, idx[i0:i1], half_n, ph)
            np.multiply(ph, o, out=o)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers), bufs, phases))  # re-raises a worker's error
    return out


def _evaluate_lattice(source: FieldSource, xs, ys) -> np.ndarray:
    """The weighted transform at every ``xs[j] + 1j*ys[i]``, as ``out[i, j]``.

    Uses the separable form ``V(x, y) = exp(-1j*x*y)
    * sum_s [a_s * phi(t_s - x)] * exp(2j*y*t_s)`` with ``t_s = delta*s``:
    one ``(nx, S)`` matrix of windowed samples (zero outside each ``x``'s
    window) times one ``(S, ny)`` matrix of exponentials, so a tensor grid
    costs ``nx + ny`` exponential vectors instead of ``nx * ny``.
    """
    g = source.grid
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    lim = g.L + g.margin * g.delta
    for axis in (xs, ys):
        bad = np.abs(axis) > lim
        if bad.any():
            raise DomainError(
                f"coordinate {axis[bad][0]} outside the stored domain (halfwidth {lim})"
            )
    d = source.noise.delta
    # per-x window index ranges, as |t_s - x| <= T with a rounding guard
    lo = np.ceil((xs - g.T) / d - 1e-12).astype(np.int64)
    hi = np.floor((xs + g.T) / d + 1e-12).astype(np.int64)
    s0, s1 = lo.min(), hi.max()
    t = d * np.arange(s0, s1 + 1)
    a = source.samples[s0 + source.noise.s_half : s1 + source.noise.s_half + 1]
    weighted = a * window(t - xs[:, None])
    for row, first, last in zip(weighted, lo - s0, hi - s0):
        row[:first] = 0.0
        row[last + 1 :] = 0.0
    sums = weighted @ np.exp(2j * np.outer(t, ys))
    return np.exp(-1j * np.outer(ys, xs)) * sums.T


def evaluate_continuous(source: FieldSource, z: complex) -> complex:
    """Evaluate the weighted transform of the realization at any point.

    At stored grid points this reproduces the synthesized values (up to
    rounding); elsewhere it extends the same finite sum continuously.
    """
    return complex(_evaluate_lattice(source, [z.real], [z.imag])[0, 0])


def refine_zero(
    source: FieldSource,
    z0: complex,
    radius: float,
    levels: int,
) -> tuple[complex, float]:
    """Minimise the weighted magnitude over nested square searches.

    Each pass evaluates a 9x9 grid over the square of the current radius
    centred at the best point so far, as one separable lattice sum, then
    shrinks the radius fourfold; ``levels`` extra passes follow the
    initial one.  A pass moves to its first minimum in row-major order
    (``dy`` outer, ``dx`` inner), and only if that is strictly below the
    best magnitude so far.  The returned minimum is non-increasing in
    ``levels`` because every finer grid contains its own centre.
    """
    if radius < source.grid.delta:
        raise ConfigError(f"radius {radius} below grid spacing {source.grid.delta}")
    if levels < 0:
        raise ConfigError("levels must be >= 0")
    best, best_mag = z0, abs(evaluate_continuous(source, z0))
    r = radius
    for _ in range(levels + 1):
        offs = np.linspace(-r, r, 9)
        xs, ys = best.real + offs, best.imag + offs
        mags = np.abs(_evaluate_lattice(source, xs, ys))
        i, j = np.unravel_index(np.argmin(mags), mags.shape)
        if mags[i, j] < best_mag:
            best, best_mag = complex(xs[j], ys[i]), float(mags[i, j])
        r /= 4.0
    return best, best_mag


# ---------------------------------------------------------------------------
# binary field cache
#
# One JSON header line (sorted keys, so reruns are byte-identical), then the
# raw row-major array bytes.  The header carries enough to regenerate the
# noise, so a cache round-trip restores continuous re-evaluation too.

_MAGIC = "wfield-v1"
_PRECISIONS = ("complex64", "complex128")


def write_field(field: WeightedField, path, precision: str = "complex128") -> None:
    if precision not in _PRECISIONS:
        raise ConfigError(f"precision must be complex64 or complex128, got {precision!r}")
    g = field.grid
    src = field.source
    header = {
        "format": _MAGIC,
        "L": g.L,
        "delta": g.delta,
        "T": g.T,
        "margin": g.margin,
        "sigma": src.noise.sigma if src is not None else None,
        "seed": field.seed,
        "signal": src.signal.descriptor() if src is not None else None,
        "precision": precision,
        "n_axis": g.n_axis,
    }
    payload = np.ascontiguousarray(field.values.astype(precision))
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(payload.tobytes(order="C"))


def read_field(path) -> WeightedField:
    """Load a cached field; regenerates the noise source when the header
    records a seed (noise draws are reproducible), else returns a field
    without one."""
    with open(path, "rb") as fh:
        line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(line)
        if header.get("format") != _MAGIC:
            raise DataError(f"{path}: not a {_MAGIC} cache")
        grid = GridSpec(
            L=header["L"], delta=header["delta"], T=header["T"], margin=header["margin"]
        )
        n = header["n_axis"]
        if n != grid.n_axis:
            raise DataError(f"{path}: header axis count {n} inconsistent with grid")
        if header["precision"] not in _PRECISIONS:
            raise DataError(f"{path}: unknown precision {header['precision']!r}")
        values = np.frombuffer(raw, dtype=header["precision"])
        if values.size != n * n:
            raise DataError(f"{path}: payload size {values.size} != {n}*{n}")
        source = None
        if header.get("signal") is not None:
            sig = parse_signal(header["signal"], sigma=header.get("sigma") or 1.0)
            if header.get("seed") is not None:
                noise = draw_noise(grid, header["sigma"], header["seed"])
            else:
                noise = zero_noise(grid)
            source = FieldSource(noise=noise, signal=sig, grid=grid)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        # bad JSON, a missing key, a value of the wrong type, a payload that
        # is not whole elements, or values the grid or signal reject
        # (ConfigError is a ValueError)
        raise DataError(f"{path}: corrupt field cache: {e!r}") from e
    values = values.reshape(n, n).astype(np.complex128)
    return WeightedField(grid=grid, values=values, source=source)
