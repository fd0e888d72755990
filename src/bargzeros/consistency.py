"""Cross-resolution consistency: greedy matching and failure estimates.

A high-resolution zero set serves as proxy ground truth.  A detection run
at a coarser spacing ``delta_lo`` is *certified accurate* when a greedy
matching, the one certificate, pairs every proxy zero with a distinct
detection within sup-norm ``2*delta_lo``, and every detection away from a
``2*delta_lo`` boundary collar is used by the pairing.  Averaging the
certificate bit over realizations gives an upper bound for the failure
probability of a method at that resolution.  ``wasserstein_within``
decides the same question exactly (by maximum bipartite matching); it is
the oracle of the tests and the benchmark, and is not exported.  Both read
one threshold graph and take the collar from ``PointSet.in_box``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_records
from .detect import detect_ladder
from .errors import ConfigError
from .grid import Method, PointSet


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedily matching proxy zeros to detections:
    ``certificate`` is 0 when the run is certified accurate, 1 otherwise,
    and ``max_distortion`` is the largest sup-norm distance of a matched
    pair (0.0 when nothing is matched).
    """

    certificate: int
    max_distortion: float


#: slack of the one distance test, so that lattice points exactly a bound
#: apart are within it at any spacing, dyadic or not
_SLACK = 1e-12


def _threshold_graph(u: PointSet, v: PointSet, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise sup-norm distances from ``u``'s points to ``v``'s, and the
    biadjacency matrix of the pairs within ``bound``."""
    a, b = u.points, v.points
    dist = np.maximum(np.abs(a.real[:, None] - b.real), np.abs(a.imag[:, None] - b.imag))
    return dist, dist <= bound + _SLACK


def greedy_match(z_hi: PointSet, z_lo: PointSet, delta_lo: float) -> MatchResult:
    """Greedily pair proxy zeros with detections within ``2*delta_lo``.

    Proxy points are processed in their stored (row-major) order; each
    takes the sup-norm-closest still-unmatched detection in range, ties
    resolved by the detections' stored order.  Deterministic by
    construction.  ``2*delta_lo`` must be a multiple of ``z_lo.delta``.
    """
    if z_hi.domain_halfwidth != z_lo.domain_halfwidth:
        raise ConfigError("matched sets must share the same target box")
    dist, adj = _threshold_graph(z_hi, z_lo, 2.0 * delta_lo)
    taken = np.zeros(len(z_lo), dtype=bool)
    missed = False
    max_dist = 0.0
    for row, near in zip(dist, adj):
        cand = np.flatnonzero(~taken & near)
        if cand.size == 0:
            missed = True
            continue
        j = cand[np.argmin(row[cand])]  # argmin takes the first minimum
        taken[j] = True
        max_dist = max(max_dist, float(row[j]))
    # certified: every proxy zero matched, every detection inside the
    # collar used by the pairing
    inner = z_lo.in_box(z_lo.domain_halfwidth - 2.0 * delta_lo)
    return MatchResult(int(missed or not taken[inner].all()), max_dist)


def wasserstein_within(
    u_set: PointSet,
    v_set: PointSet,
    L: float,
    theta: float,
    bound: float,
) -> int:
    """Decide whether an injective map ``u -> v`` with sup-norm distortion
    at most ``bound`` exists whose image covers ``V`` inside the collar box
    ``Omega_{L - theta}``, where ``L - theta`` must be a multiple of ``v_set.delta``.

    Two maximum-matching checks on the threshold graph suffice: one
    matching saturating ``U`` and one saturating the collar part of ``V``
    can always be combined into a single matching saturating both
    (Mendelsohn-Dulmage), so existence is equivalent to both checks
    passing.  Returns 1 when such a map exists, 0 otherwise.
    """
    _, adj = _threshold_graph(u_set, v_set, bound)
    inner = v_set.in_box(L - theta)
    return int(_saturates(adj, rows=True) and _saturates(adj[:, inner], rows=False))


def _saturates(adj: np.ndarray, rows: bool) -> bool:
    """Does a maximum matching of the boolean biadjacency matrix saturate
    the rows (or columns)?

    Kuhn's augmenting-path algorithm, with an explicit stack in place of
    recursion: each row in turn searches for an augmenting path by depth
    first search over the columns not yet visited in that search.  Once no
    augmenting path starts at a row, none does after later augmentations
    either, so the first row whose search fails is unmatched in a maximum
    matching, and the answer is False there.
    """
    if not rows:
        adj = adj.T
    r, c = np.nonzero(adj)  # row-major order, so each row's columns ascend
    ends = np.cumsum(np.bincount(r, minlength=adj.shape[0])).tolist()
    c = c.tolist()
    nbrs = [c[a:b] for a, b in zip([0, *ends], ends)]
    owner = [-1] * adj.shape[1]  # the row matched to each column
    for root in range(adj.shape[0]):
        seen = [False] * adj.shape[1]
        path_rows, path_cols = [root], []
        stack = [iter(nbrs[root])]
        while stack:
            col = next((j for j in stack[-1] if not seen[j]), -1)
            if col < 0:  # dead end: back up one edge
                stack.pop()
                path_rows.pop()
                if path_cols:
                    path_cols.pop()
                continue
            seen[col] = True
            path_cols.append(col)
            if owner[col] < 0:  # augment: each path row takes its path column
                for i, j in zip(path_rows, path_cols):
                    owner[j] = i
                break
            path_rows.append(owner[col])
            stack.append(iter(nbrs[owner[col]]))
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# report rows

@dataclass(frozen=True)
class ConsistencyRow:
    seed: int | None
    method: str
    delta_hi: float
    delta_lo: float
    n_hi: int
    n_lo: int
    certificate: int
    max_distortion: float


def write_consistency_csv(rows: list[ConsistencyRow], path, meta: dict | None = None) -> None:
    write_records(path, ConsistencyRow, rows, meta)


def _check_ladder(levels, proxy: Method) -> None:
    """Refuse the levels and proxy that :func:`ladder_rows` refuses: level
    0, which would certify the proxy against itself, and the ST proxy.
    Apart from :func:`ladder_rows`, only the ``consistency`` command calls
    it, so that it refuses before it reads a cache."""
    if proxy is Method.ST:
        raise ConfigError(f"proxy must be amn or mgn, got {proxy.value!r}")
    if 0 in levels:
        raise ConfigError("consistency levels start at 1 (level 0 is the proxy itself)")


def ladder_rows(field, target: float, levels, methods, proxy: Method) -> list[ConsistencyRow]:
    """Certify each detector at each subsampling level against the proxy.

    The ``proxy`` detector (AMN or MGN) on ``field`` itself is the ground
    truth; for every level in ``levels`` (each >= 1, none repeated) and
    every :class:`Method` in ``methods`` (none repeated), the detections on
    the subsampled field are greedily matched against it, one row per
    (level, method) in that order, tagged with the method's name.
    """
    levels = tuple(levels)  # read here and by detect_ladder
    _check_ladder(levels, proxy)
    z_hi = detect_ladder(field, target, [0], [proxy])[0, proxy]
    rows = []
    for (_, m), z_lo in detect_ladder(field, target, levels, methods).items():
        match = greedy_match(z_hi, z_lo, z_lo.delta)
        rows.append(ConsistencyRow(
            seed=field.seed, method=m.name,
            delta_hi=field.grid.delta, delta_lo=z_lo.delta,
            n_hi=len(z_hi), n_lo=len(z_lo),
            certificate=match.certificate,
            max_distortion=match.max_distortion,
        ))
    return rows


def aggregate_failure_table(rows: list[ConsistencyRow]):
    """Failure rate (mean certificate bit) per (delta_lo, method): one row
    per resolution, one column per method."""
    deltas = sorted({r.delta_lo for r in rows}, reverse=True)
    methods = sorted({r.method for r in rows})
    table = {}
    for d in deltas:
        for m in methods:
            certs = [r.certificate for r in rows if r.delta_lo == d and r.method == m]
            if certs:
                table[(d, m)] = sum(certs) / len(certs)
    return deltas, methods, table
