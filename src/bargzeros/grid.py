"""Square acquisition grids, sup-norm boxes, and dyadic subsampling.

The lattice with half-width ``L`` and spacing ``delta`` is the set
``{delta*k + 1j*delta*j : |delta*k| <= L, |delta*j| <= L}``.  Arrays are
addressed by non-negative index pairs ``(k, l)`` counted from the lower-left
corner, so the grid point at index ``(k, l)`` is ``(-L + k*delta) +
1j*(-L + l*delta)``.  All geometric predicates used by the detectors (ring
membership, separation) are evaluated on these integer indices; floating
point only enters when a point's coordinates are materialised.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import WeightedField

#: tolerance for deciding that a ratio of float parameters is an integer
_RATIO_TOL = 1e-9


def _int_ratio(num: float, den: float, what: str) -> int:
    ratio = num / den
    if not math.isfinite(ratio):
        raise ConfigError(f"{what} = {num}/{den} is not finite")
    n = round(ratio)
    if abs(ratio - n) > _RATIO_TOL:
        raise ConfigError(f"{what} = {num}/{den} = {ratio} is not an integer")
    return int(n)


#: half-length of the window's support ``|t| <= T``: ``exp(-T**2)`` is about
#: 2.3e-16, so a longer window adds nothing in float64, and a shorter one
#: biases the field's covariance and widens its spectrum
WINDOW_T = 6.0


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a square grid: half-width ``L`` and spacing ``delta``.
    Detectors that compare against samples beyond their box need ``L``
    wider than the box."""

    L: float
    delta: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.delta > 0.5:
            raise ConfigError(f"delta must be <= 1/2, got {self.delta}")
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        _int_ratio(self.L, self.delta, "L/delta")
        _int_ratio(WINDOW_T, self.delta, "T/delta")

    # -- integer geometry ---------------------------------------------------

    @property
    def t_over_delta(self) -> int:
        return _int_ratio(WINDOW_T, self.delta, "T/delta")

    @property
    def half_n(self) -> int:
        """``L/delta``: index distance from the centre to the outermost ring."""
        return _int_ratio(self.L, self.delta, "L/delta")

    @property
    def n_axis(self) -> int:
        """Number of stored samples per axis (odd, symmetric about 0)."""
        return 2 * self.half_n + 1

    def index_halfwidth(self, halfwidth: float) -> int:
        """Half-width of a centred sup-norm box in index units."""
        w = _int_ratio(halfwidth, self.delta, "halfwidth/delta")
        if w < 0:
            raise ConfigError(f"box halfwidth must be >= 0, got {halfwidth}")
        if w > self.half_n:
            raise ConfigError(
                f"box halfwidth {halfwidth} exceeds stored grid halfwidth {self.L}"
            )
        return w

    # -- index <-> point maps -----------------------------------------------

    def axis(self) -> np.ndarray:
        """Stored sample coordinates along one axis."""
        return -self.L + self.delta * np.arange(self.n_axis)

    def point_of(self, k: int, l: int) -> complex:
        if not (0 <= k < self.n_axis and 0 <= l < self.n_axis):
            raise ConfigError(f"index ({k}, {l}) outside grid of {self.n_axis} per axis")
        return complex(-self.L + k * self.delta, -self.L + l * self.delta)


def make_grid(L: float, delta: float, T: float = WINDOW_T) -> GridSpec:
    """Validated constructor for :class:`GridSpec`; ``T`` may only be 6."""
    if T != WINDOW_T:
        raise ConfigError(f"T = {T!r}: the window half-length is fixed at {WINDOW_T!r}")
    return GridSpec(L=L, delta=delta)


class Method(enum.Enum):
    """A zero-set detector.  Its value names the detector's function in
    :mod:`bargzeros.detect` and is its command-line and file-name token;
    its name is the tag that point-set CSVs, stats estimators and
    consistency rows record."""

    AMN = "amn"
    MGN = "mgn"
    ST = "st"


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite set of plane points on a lattice, with provenance.

    ``kl`` holds integer indices relative to the lower-left corner of the
    domain box, i.e. point ``i`` is ``(-W + delta*k_i) + 1j*(-W + delta*l_i)``
    with ``W = domain_halfwidth``.  Rows are stored sorted by ``(k, l)`` so
    that CSV output and iteration order are deterministic.  ``==`` is
    identity: no arrays are compared.  A seed, when recorded, is ``>= 0``.

    Separation invariants (sieved outputs are 5*delta separated in sup
    norm) are asserted by the detectors that promise them, not here: the
    same type also carries unsieved candidate sets.
    """

    method: Method
    delta: float
    domain_halfwidth: float
    kl: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    points: np.ndarray = field(init=False)  # the coordinates of ``kl``
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        kl = np.asarray(self.kl, dtype=np.int64).reshape(-1, 2)
        w = _int_ratio(self.domain_halfwidth, self.delta, "domain_halfwidth/delta")
        if w < 0:
            raise ConfigError(f"domain_halfwidth must be >= 0, got {self.domain_halfwidth}")
        if kl.size and (kl.min() < 0 or kl.max() > 2 * w):
            raise ConfigError("point indices leave the domain box")
        order = np.lexsort((kl[:, 1], kl[:, 0]))
        kl = np.ascontiguousarray(kl[order])
        if (kl[1:] == kl[:-1]).all(axis=1).any():
            raise ConfigError("a point is repeated")
        kl.setflags(write=False)
        pts = (-self.domain_halfwidth + self.delta * kl[:, 0]) + 1j * (
            -self.domain_halfwidth + self.delta * kl[:, 1]
        )
        pts.setflags(write=False)
        object.__setattr__(self, "kl", kl)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.kl.shape[0]

    def min_separation(self) -> int:
        """Minimum pairwise sup-norm distance in index units (0 points or 1
        point: returns a large sentinel)."""
        n = len(self)
        if n < 2:
            return np.iinfo(np.int64).max
        dk = np.abs(self.kl[:, 0, None] - self.kl[None, :, 0])
        dl = np.abs(self.kl[:, 1, None] - self.kl[None, :, 1])
        cheb = np.maximum(dk, dl)
        np.fill_diagonal(cheb, np.iinfo(np.int64).max)
        return int(cheb.min())

    def in_box(self, halfwidth: float) -> np.ndarray:
        """Which points lie in the closed centred box of the given
        half-width, as an exact index test."""
        w = _int_ratio(self.domain_halfwidth, self.delta, "domain_halfwidth/delta")
        r = _int_ratio(halfwidth, self.delta, "halfwidth/delta")
        return (np.abs(self.kl[:, 0] - w) <= r) & (np.abs(self.kl[:, 1] - w) <= r)


def subsample(field: "WeightedField") -> "WeightedField":
    """Keep every second sample along each axis (spacing doubles).

    The lower-left corner sample is preserved, and kept values are carried
    over bit-exactly; nothing is recomputed.  ``L`` stays, so the grid must
    still validate at twice the spacing (``L/delta`` even).
    """
    g = field.grid
    try:
        sub = GridSpec(L=g.L, delta=2 * g.delta)
    except ConfigError as e:
        raise ConfigError(f"grid not subsamplable: {e}") from e
    values = np.ascontiguousarray(field.values[::2, ::2])
    return replace(field, grid=sub, values=values)


def ladder(field: "WeightedField", max_level: int) -> dict[int, "WeightedField"]:
    """Level ``j`` -> the field at spacing ``2**j * delta``, for ``j`` up to
    ``max_level``, by repeated :func:`subsample` only."""
    out = {0: field}
    for j in range(1, max_level + 1):
        out[j] = subsample(out[j - 1])
    return out
