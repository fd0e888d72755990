"""Zero-set detectors on weighted-field grids: AMN, MGN, and ST.

All three compare the weighted magnitude ``G = |values|``:

* AMN selects points whose whole sup-norm ``2*delta`` ring (16 lattice
  points) beats the centre by an adaptive margin, then sieves to a maximal
  ``5*delta``-separated subset;
* MGN keeps points minimal among their 8 immediate neighbours;
* ST thresholds ``G <= 2*delta`` and sieves.

Detectors never skip boundary points silently: a target box whose ring or
right-neighbour samples fall outside the stored grid raises
``BoundaryError``, and callers are expected to acquire margin rings (or
target a box strictly inside the grid, as the CLI does).
"""

from __future__ import annotations

import csv
import cmath
from dataclasses import replace

import numpy as np

from .errors import BoundaryError, ConfigError, DataError
from ._table import write_table
from .grid import Method, PointSet
from .simulate import WeightedField

#: the 16 index offsets with sup-norm exactly 2
_RING2 = [
    (p, q)
    for p in range(-2, 3)
    for q in range(-2, 3)
    if max(abs(p), abs(q)) == 2
]

#: the 8 immediate neighbours
_RING1 = [(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1) if (p, q) != (0, 0)]


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


def amn_margin(field: WeightedField, k: int, l: int) -> float:
    """Adaptive comparison margin at grid index ``(k, l)``.

    In weighted form the finite-difference branch picks up the phase
    ``exp(delta*(2j*Im(lam) + delta)/2)`` that converts the stored weighted
    value at ``lam + delta`` back to the weight of ``lam``.
    """
    g = field.grid
    n = g.n_axis
    if not (0 <= k < n and 0 <= l < n):
        raise BoundaryError(f"index ({k}, {l}) outside stored grid")
    if k + 1 >= n:
        raise BoundaryError(f"margin at ({k}, {l}) needs the right neighbour sample")
    lam = g.point_of(k, l)
    phase = cmath.exp(0.5 * g.delta * (2j * lam.imag + g.delta))
    v0 = field.values[k, l]
    v1 = field.values[k + 1, l]
    return max(abs(v0), 0.75 * abs(phase * v1 - v0))


def amn_select(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Unsieved AMN candidates: every point of the target box whose full
    2-ring dominates it by the adaptive margin."""
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=2)
    G = field.magnitudes
    V = field.values
    Gc = G[sl, sl]

    # margin over the whole target block; the phase depends on Im(lam) only
    im = g.axis()[sl]
    phase = np.exp(0.5 * g.delta * (2j * im + g.delta))[None, :]
    right = V[lo + 1 : lo + 2 * w + 2, sl]
    eta = np.maximum(Gc, 0.75 * np.abs(phase * right - V[sl, sl]))

    bar = Gc + eta
    keep = np.ones(Gc.shape, dtype=bool)
    for p, q in _RING2:
        ring = G[lo + p : lo + p + 2 * w + 1, lo + q : lo + q + 2 * w + 1]
        np.logical_and(keep, ring >= bar, out=keep)
    return PointSet(Method.AMN, g.delta, target_halfwidth, np.argwhere(keep), seed=field.seed)


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
    mags = field.magnitudes[kl[:, 0] + off, kl[:, 1] + off]

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
    is minimal among the 8 immediate neighbours."""
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=1)
    G = field.magnitudes
    Gc = G[sl, sl]
    keep = np.ones(Gc.shape, dtype=bool)
    for p, q in _RING1:
        ngb = G[lo + p : lo + p + 2 * w + 1, lo + q : lo + q + 2 * w + 1]
        np.logical_and(keep, Gc <= ngb, out=keep)
    return PointSet(Method.MGN, g.delta, target_halfwidth, np.argwhere(keep), seed=field.seed)


def st(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Sieved thresholding: weighted magnitude at most ``2*delta``, then
    the same sieve as AMN.  Not scale invariant."""
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=1)
    keep = field.magnitudes[sl, sl] <= 2.0 * g.delta
    cands = PointSet(Method.ST, g.delta, target_halfwidth, np.argwhere(keep), seed=field.seed)
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
    Gc = field.magnitudes[sl, sl]
    keep = Gc <= np.quantile(Gc, quantile)
    return PointSet(Method.RAW, g.delta, target_halfwidth, np.argwhere(keep), seed=field.seed)


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
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val
                continue
            rows.append(line)
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
