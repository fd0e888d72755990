"""Zero-set detectors on weighted-field grids: AMN, MGN, and ST.

Each :class:`~bargzeros.grid.Method` names one of them: its value
(``"amn"`` for AMN) is the name of the detector's function here.  All three
compare the weighted magnitude ``G = |values|``, taken only of
the samples each reads (no field-sized magnitude array is kept):

* AMN selects points whose whole sup-norm ``2*delta`` ring (16 lattice
  points) beats the centre by an adaptive margin, then sieves to a maximal
  ``5*delta``-separated subset;
* MGN keeps points minimal among their 8 immediate neighbours;
* ST thresholds ``G <= 2*delta`` and sieves.

AMN and MGN screen each row block of the target box (one ``np.abs`` per
block, rings included) with one necessary comparison per point: AMN's
``2*G <=`` the ring sample two rows down, MGN's ``G <=`` both row
neighbours.  The few survivors gather their other neighbours from the
same block magnitudes for the exact test, so the selected points are those
of one comparison per neighbour.

Detectors never skip boundary points silently: a target box whose ring or
right-neighbour samples fall outside the stored grid raises
``ConfigError``; callers widen ``L`` (or target a box strictly inside
the grid, as the CLI does).
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DataError
from ._table import write_table
from .grid import Method, PointSet, ladder
from .simulate import WeightedField

#: target-box rows per screened block, so that temporaries are a few (block
#: rows, box width) arrays (at n=1537, 128 beat 32 and 64 and tied 256)
_BLOCK_ROWS = 128

#: (row, column) offsets of the 16 samples of the sup-norm ``2*delta`` ring
_RING = np.array([(p, q) for p in range(-2, 3) for q in range(-2, 3) if max(abs(p), abs(q)) == 2])
#: the 6 immediate neighbours that MGN's row screen leaves out
_OFF_ROW = np.array([(p, q) for p in (-1, 1) for q in (-1, 0, 1)])


def _target_slices(field: WeightedField, target_halfwidth: float, rings: int):
    """Index window of the target box, after checking that `rings` extra
    rings of samples surround it."""
    g = field.grid
    w = g.index_halfwidth(target_halfwidth)
    if g.half_n < w + rings:
        raise ConfigError(
            f"target box needs {rings} ring(s) of samples beyond halfwidth "
            f"{target_halfwidth}; grid stores only {g.half_n - w}"
        )
    lo = g.half_n - w
    return w, lo, slice(lo, lo + 2 * w + 1)


def _blocks(V: np.ndarray, lo: int, m: int, pad: int):
    """Row blocks of the ``m x m`` box of ``V`` at ``(lo, lo)``: yields each
    block's first box row and the magnitudes of its samples with ``pad``
    surrounding rings.  Blocks are ``_BLOCK_ROWS`` rows, the last up to one
    more, as :func:`simulate._strips`: at L=3 every dyadic box has ``1 (mod
    128)`` rows, and a one-row block would repeat a whole block's calls
    (about 22 us of each ``amn_select`` and ``mgn`` call at delta=2**-7,
    L=3, box 2, levels 0 to 2)."""
    starts = range(0, max(m - 1, 1), _BLOCK_ROWS)
    for r0, r1 in zip(starts, [*starts[1:], m]):
        yield r0, np.abs(V[lo + r0 - pad : lo + r1 + pad, lo - pad : lo + m + pad])


def _hits(mask: np.ndarray) -> np.ndarray:
    """``(row, column)`` indices of the true entries of a 2-D mask, in
    row-major order (``np.argwhere`` on 2-D input is many times slower)."""
    return np.stack(np.divmod(np.flatnonzero(mask), mask.shape[1]), axis=1)


def _survivors(rows: np.ndarray, screen: np.ndarray, pad: int, offsets: np.ndarray, r0: int):
    """Box indices (rows from ``r0``) of the block points passing ``screen``,
    their magnitudes, and the least of their neighbours' at ``offsets``, all
    read from ``rows``: the block's magnitudes with ``pad`` surrounding rings."""
    i, j = np.divmod(np.flatnonzero(screen), screen.shape[1])
    G = rows.ravel()
    at = (i + pad) * rows.shape[1] + j + pad
    near = G[at[:, None] + offsets @ (rows.shape[1], 1)].min(axis=1)
    return np.stack((i + r0, j), axis=1), G[at], near


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


def amn_select(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Unsieved AMN candidates: every point of the target box whose full
    2-ring dominates it by the adaptive margin.

    The margin is at least the centre magnitude ``Gc``, so ``ring >= 2*Gc``
    is necessary (exactly, in floating point), and so is ``2*Gc <=`` the
    ring sample two rows down, since the ring minimum is one of its 16
    samples.  Only points passing that one comparison (a few dozen of
    1,050,625 in box 2 of a pure-noise n=1537 field) gather the whole ring
    and evaluate the margin.
    """
    g = field.grid
    w, lo, _ = _target_slices(field, target_halfwidth, rings=2)
    kls, ring_mins = [], []
    for r0, rows in _blocks(field.values, lo, 2 * w + 1, 2):
        screen = 2.0 * rows[2:-2, 2:-2] <= rows[4:, 2:-2]
        kl, _, ring = _survivors(rows, screen, 2, _RING, r0)
        kls.append(kl)
        ring_mins.append(ring)
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
    is at most that of each of their 8 immediate neighbours.  Only the
    points no larger than their left and right neighbours (about 0.2% on
    pure-noise fields) are compared with the other 6."""
    g = field.grid
    w, lo, _ = _target_slices(field, target_halfwidth, rings=1)
    kls = []
    for r0, rows in _blocks(field.values, lo, 2 * w + 1, 1):
        centre = rows[1:-1, 1:-1]
        screen = centre <= rows[1:-1, :-2]
        screen &= centre <= rows[1:-1, 2:]
        kl, Gc, near = _survivors(rows, screen, 1, _OFF_ROW, r0)
        kls.append(kl[Gc <= near])
    return PointSet(Method.MGN, g.delta, target_halfwidth, np.concatenate(kls), seed=field.seed)


def st(field: WeightedField, target_halfwidth: float) -> PointSet:
    """Sieved thresholding: weighted magnitude at most ``2*delta``, then
    the same sieve as AMN.  Not scale invariant."""
    g = field.grid
    w, lo, sl = _target_slices(field, target_halfwidth, rings=1)
    keep = np.abs(field.values[sl, sl]) <= 2.0 * g.delta
    cands = PointSet(Method.ST, g.delta, target_halfwidth, _hits(keep), seed=field.seed)
    return _check_separated(sieve(cands, field), "st")


def detect_ladder(field: WeightedField, target_halfwidth: float, levels,
                  methods) -> dict[tuple[int, Method], PointSet]:
    """``(level, method) -> PointSet`` for each level in ``levels`` (in the
    order given) and each :class:`Method` in ``methods``: the detections on
    the field subsampled ``level`` times (level 0 is the field itself).
    No levels give no detections; a negative level is refused, and so is a
    repeated level or method, which would name one point set twice.

    Each detector is looked up by its method's value in this module at call
    time, so a wrapper set on the module attribute sees every call.
    """
    levels, methods = tuple(levels), tuple(methods)  # each is read more than once
    if min(levels, default=0) < 0:
        raise ConfigError(f"subsampling levels must be >= 0, got {min(levels)}")
    if len(set(levels)) < len(levels):
        raise ConfigError(f"repeated subsampling level in {list(levels)}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"repeated method in {[m.value for m in methods]}")
    rungs = ladder(field, max(levels, default=0))
    return {(j, m): globals()[m.value](rungs[j], target_halfwidth)
            for j in levels for m in methods}


# ---------------------------------------------------------------------------
# PointSet serialization

_CSV_COLUMNS = ["re", "im", "k", "l", "method", "delta", "seed"]


def write_pointset_csv(ps: PointSet, path, meta: dict | None = None) -> None:
    """Write one point per row; leading comment lines carry the set's
    provenance (so empty sets round-trip too) plus any caller metadata."""
    own = {"method": ps.method.name, "delta": ps.delta,
           "domain_halfwidth": ps.domain_halfwidth, "seed": ps.seed}
    rows = ((z.real, z.imag, k, l, ps.method.name, ps.delta, ps.seed)
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
            Method[meta["method"]],
            float(meta["delta"]),
            float(meta["domain_halfwidth"]),
            np.array(kl, dtype=np.int64).reshape(-1, 2),
            seed=int(meta["seed"]) if meta["seed"] else None,
        )
    except (KeyError, TypeError, ValueError) as e:
        # a missing column, a short row, an unknown method, a non-numeric
        # field, or indices the point set rejects (ConfigError is a ValueError)
        raise DataError(f"{path}: corrupt point-set CSV: {e!r}") from e
