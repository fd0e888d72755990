"""Zero-set detectors on weighted-field grids: AMN, MGN, and ST.

All three compare the weighted magnitude ``G = |values|``, taken only of
the samples each reads (no field-sized magnitude array is kept):

* AMN selects points whose whole sup-norm ``2*delta`` ring (16 lattice
  points) beats the centre by an adaptive margin, then sieves to a maximal
  ``5*delta``-separated subset;
* MGN keeps points minimal among their 8 immediate neighbours;
* ST thresholds ``G <= 2*delta`` and sieves.

AMN and MGN compare each point with the minimum of its ring or window,
built as separable running minima over row blocks of the target box (one
``np.abs`` per block, rings included): the 16-sample ring is a 5-wide
minimum on rows +-2 and a 3-tall minimum on columns +-2, the 3x3 window
two 3-sample minima.  A minimum is exact, so
these tests select the same points as one comparison per neighbour.  The
AMN margin ``eta >= G`` makes ``ring >= 2*G`` a necessary condition, also
in floating point, and the margin is evaluated only where it holds (a
handful of points per box on pure-noise fields).

Detectors never skip boundary points silently: a target box whose ring or
right-neighbour samples fall outside the stored grid raises
``BoundaryError``, and callers are expected to acquire margin rings (or
target a box strictly inside the grid, as the CLI does).
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from .errors import BoundaryError, ConfigError, DataError
from ._table import write_table
from .grid import Method, PointSet
from .simulate import WeightedField

#: target-box rows per ring-minimum block; each block's filter temporaries
#: are a few (block rows, box width) float arrays instead of full-box ones
#: (at n=1537, 64 rows measured faster than 16, 32, 128, 256 or one block)
_BLOCK_ROWS = 64


def _target_slices(field: WeightedField, target_halfwidth: float, rings: int):
    """Index window of the target box, after checking that `rings` extra
    rings of samples surround it."""
    g = field.grid
    w = g.index_halfwidth(target_halfwidth)
    if g.half_n < w + rings:
        raise BoundaryError(
            f"target box needs {rings} ring(s) of samples beyond halfwidth "
            f"{target_halfwidth}; grid stores only {g.half_n - w}"
        )
    lo = g.half_n - w
    return w, lo, slice(lo, lo + 2 * w + 1)


def _blocks(V: np.ndarray, lo: int, m: int, pad: int):
    """Row blocks of the ``m x m`` box of ``V`` at ``(lo, lo)``: yields each
    block's first box row and the magnitudes of its samples with ``pad``
    surrounding rings."""
    for r0 in range(0, m, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, m)
        yield r0, np.abs(V[lo + r0 - pad : lo + r1 + pad, lo - pad : lo + m + pad])


def _run_min(a: np.ndarray, width: int, axis: int) -> np.ndarray:
    """Minimum over each run of ``width`` consecutive samples along ``axis``
    (valid part only, so that axis shrinks by ``width - 1``), by doubling:
    a run of 3 takes two ``np.minimum`` passes, a run of 5 three."""
    lead = (slice(None),) * axis
    span = 1
    while span < width:
        step = min(span, width - span)
        n = a.shape[axis] - step
        a = np.minimum(a[lead + (slice(0, n),)], a[lead + (slice(step, step + n),)])
        span += step
    return a


def _hits(mask: np.ndarray, first_row: int = 0) -> np.ndarray:
    """``(row, column)`` indices of the true entries of a 2-D mask, in
    row-major order, with rows counted from ``first_row`` (``np.argwhere``
    on 2-D input is many times slower)."""
    i, j = np.divmod(np.flatnonzero(mask), mask.shape[1])
    return np.stack((i + first_row, j), axis=1)


def _margins(field: WeightedField, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Adaptive comparison margins at the grid indices ``(k[i], l[i])``.

    In weighted form the finite-difference branch picks up the phase
    ``exp(delta*(2j*Im(lam) + delta)/2)`` that converts the stored weighted
    value at ``lam + delta`` back to the weight of ``lam``.  Each margin is
    computed by the same elementwise operations, in the same operand order,
    however many indices are passed, so its bits do not depend on which
    other points are evaluated with it.
    """
    g = field.grid
    V = field.values
    phase = np.exp(0.5 * g.delta * (2j * g.axis()[l] + g.delta))
    v0 = V[k, l]
    return np.maximum(np.abs(v0), 0.75 * np.abs(phase * V[k + 1, l] - v0))


def amn_margin(field: WeightedField, k: int, l: int) -> float:
    """Adaptive comparison margin at grid index ``(k, l)``: the one-point
    case of the margin that :func:`amn_select` evaluates."""
    n = field.grid.n_axis
    if not (0 <= k < n and 0 <= l < n):
        raise BoundaryError(f"index ({k}, {l}) outside stored grid")
    if k + 1 >= n:
        raise BoundaryError(f"margin at ({k}, {l}) needs the right neighbour sample")
    return float(_margins(field, np.array([k]), np.array([l]))[0])


def amn_select(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Unsieved AMN candidates: every point of the target box whose full
    2-ring dominates it by the adaptive margin.

    Each row block takes the minimum over the 16 ring samples as a 5-wide
    minimum on rows +-2 and a 3-tall minimum on columns +-2.  Since the
    margin is at least the centre magnitude ``Gc``, a point can pass only
    if that ring minimum is at least ``2*Gc`` (exactly, in floating
    point), so the margin is evaluated only at the few points that do.
    """
    g = field.grid
    w, lo, _ = _target_slices(field, target_halfwidth, rings=2)
    m = 2 * w + 1
    kls, ring_mins = [], []
    for r0, rows in _blocks(field.values, lo, m, 2):
        edge = _run_min(rows, 5, axis=1)  # ring rows -2 and +2
        side = _run_min(rows[1:-1], 3, axis=0)  # ring columns -2 and +2
        ring = np.minimum(edge[:-4], edge[4:])
        np.minimum(ring, side[:, :-4], out=ring)
        np.minimum(ring, side[:, 4:], out=ring)
        passed = ring >= 2.0 * rows[2:-2, 2:-2]
        kls.append(_hits(passed, r0))
        ring_mins.append(ring[passed])
    kl = np.concatenate(kls)
    k, l = (kl + lo).T
    keep = np.concatenate(ring_mins) >= np.abs(field.values[k, l]) + _margins(field, k, l)
    return PointSet(Method.AMN, g.delta, target_halfwidth, kl[keep], seed=field.seed)


def sieve(candidates: PointSet, field: WeightedField) -> PointSet:
    """Greedy extraction of a maximal ``5*delta``-separated subset.

    Repeatedly keeps the candidate with the smallest weighted magnitude
    (ties broken by row-major index) and discards everything within sup
    norm ``4*delta`` of it, the kept point included.
    """
    g = field.grid
    if candidates.delta != g.delta:
        raise ConfigError("candidate spacing does not match the field grid")
    n = len(candidates)
    if n == 0:
        return candidates
    w = g.index_halfwidth(candidates.domain_halfwidth)
    off = g.half_n - w
    kl = candidates.kl
    mags = np.abs(field.values[kl[:, 0] + off, kl[:, 1] + off])

    order = np.lexsort((kl[:, 1], kl[:, 0], mags))
    alive = np.ones(n, dtype=bool)
    kept = []
    for i in order:
        if not alive[i]:
            continue
        kept.append(i)
        cheb = np.maximum(
            np.abs(kl[:, 0] - kl[i, 0]), np.abs(kl[:, 1] - kl[i, 1])
        )
        alive &= cheb > 4
    return replace(candidates, kl=kl[kept])


def _check_separated(ps: PointSet, what: str) -> PointSet:
    # cheap runtime invariant; sieved outputs promise 5*delta separation
    if len(ps) >= 2 and ps.min_separation() < 5:
        raise AssertionError(f"{what} output violates the 5*delta separation invariant")
    return ps


def amn(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Full AMN detector: adaptive selection, then sieving."""
    return _check_separated(sieve(amn_select(field, target_halfwidth), field), "amn")


def mgn(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Minimal-grid-neighbours detector: points whose weighted magnitude
    is minimal among the 8 immediate neighbours, i.e. equal to the minimum
    of their 3x3 window (evaluated per row block as two 3-sample minima)."""
    g = field.grid
    w, lo, _ = _target_slices(field, target_halfwidth, rings=1)
    kls = []
    for r0, rows in _blocks(field.values, lo, 2 * w + 1, 1):
        window_min = _run_min(_run_min(rows, 3, axis=0), 3, axis=1)
        kls.append(_hits(rows[1:-1, 1:-1] <= window_min, r0))
    return PointSet(Method.MGN, g.delta, target_halfwidth, np.concatenate(kls), seed=field.seed)


def st(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Sieved thresholding: weighted magnitude at most ``2*delta``, then
    the same sieve as AMN.  Not scale invariant."""
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=1)
    keep = np.abs(field.values[sl, sl]) <= 2.0 * g.delta
    cands = PointSet(Method.ST, g.delta, target_halfwidth, _hits(keep), seed=field.seed)
    return _check_separated(sieve(cands, field), "st")


def raw_threshold(field: WeightedField, target_halfwidth: float, quantile: float) -> PointSet:
    """Diagnostic only: quantile thresholding without sieving.

    Returns every target-box point whose weighted magnitude falls below
    the given quantile of the box's magnitudes.  Useful for eyeballing how
    much structure survives naive thresholding; makes no separation
    promise, and tags its output ``Method.RAW`` so it is never mistaken for
    a sieved ST detection.
    """
    if not 0.0 < quantile < 1.0:
        raise ConfigError(f"quantile must be in (0, 1), got {quantile}")
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=0)
    Gc = np.abs(field.values[sl, sl])
    keep = Gc <= np.quantile(Gc, quantile)
    return PointSet(Method.RAW, g.delta, target_halfwidth, _hits(keep), seed=field.seed)


# ---------------------------------------------------------------------------
# PointSet serialization

_CSV_COLUMNS = ["re", "im", "k", "l", "method", "delta", "seed"]


def write_pointset_csv(ps: PointSet, path, meta: dict | None = None) -> None:
    """Write one point per row; leading comment lines carry the set's
    provenance (so empty sets round-trip too) plus any caller metadata."""
    own = {"method": ps.method.value, "delta": ps.delta,
           "domain_halfwidth": ps.domain_halfwidth, "seed": ps.seed}
    rows = ((z.real, z.imag, k, l, ps.method.value, ps.delta, ps.seed)
            for (k, l), z in zip(ps.kl, ps.points))
    write_table(path, _CSV_COLUMNS, rows, meta={**(meta or {}), **own})


def read_pointset_csv(path, meta: dict | None = None) -> PointSet:
    """Read a point set written by :func:`write_pointset_csv`; ``meta``,
    when given, receives every ``# key=value`` line, caller metadata
    included."""
    if meta is None:
        meta = {}
    rows = []
    try:
        with open(path, newline="") as fh:
            for line in fh:
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    meta[key.strip()] = val
                    continue
                rows.append(line)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: point-set CSV is not text: {e!r}") from e
    if not rows:
        raise DataError(f"{path}: no header row")
    for key in ("method", "delta", "domain_halfwidth", "seed"):
        if key not in meta:
            raise DataError(f"{path}: missing {key} metadata")
    try:
        kl = [(int(rec["k"]), int(rec["l"])) for rec in csv.DictReader(rows)]
        return PointSet(
            Method(meta["method"]),
            float(meta["delta"]),
            float(meta["domain_halfwidth"]),
            np.array(kl, dtype=np.int64).reshape(-1, 2),
            seed=int(meta["seed"]) if meta["seed"] else None,
        )
    except (KeyError, TypeError, ValueError) as e:
        # a missing column, a short row, an unknown method, a non-numeric
        # field, or indices the point set rejects (ConfigError is a ValueError)
        raise DataError(f"{path}: corrupt point-set CSV: {e!r}") from e
