"""Kac-Rice first intensity, expected counts, and the empirical estimators.

For the model ``F = F1 + sigma * F0`` (``F0`` the Gaussian entire function
with covariance ``exp(z * conj(w))``) the density of zeros per unit area is

    rho1(zeta) = (1/pi) * exp(-|F1|^2 * exp(-|zeta|^2) / sigma^2)
                 * (1 + exp(-|zeta|^2)/sigma^2 * |F1' - conj(zeta)*F1|^2)

which collapses to the flat ``1/pi`` when the deterministic part vanishes.
Counts of detected zeros over a box, normalised by its area, estimate this
intensity; their deviation from the integrated density is the count-error
statistic.  :func:`summary_rows` is the one place where counts become these
two statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import write_records
from .errors import ConfigError
from .grid import PointSet
from .signal import SignalModel, bargmann_closed_form, bargmann_derivative

#: reference standard deviation of count/area for the pure-noise model on
#: the box of half-width 6 (obtained by integrating the two-point intensity
#: of the Gaussian entire function; carried here as a constant).
_VAR_BENCHMARK_OMEGA6 = 0.01165
_OMEGA6_AREA = 144.0

#: default quadrature step; callers evaluating signals with sharp intensity
#: spikes (large A) should pass their grid spacing if it is finer
_DEFAULT_STEP = 1.0 / 64.0


def rho1(signal: SignalModel, sigma: float, zeta):
    """First intensity of the zero set at ``zeta`` (scalar or array)."""
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    zeta = np.asarray(zeta, dtype=np.complex128)
    f1 = np.asarray(bargmann_closed_form(signal, zeta))
    df1 = np.asarray(bargmann_derivative(signal, zeta))
    wt = np.exp(-np.abs(zeta) ** 2) / (sigma * sigma)
    cov = np.abs(df1 - np.conj(zeta) * f1) ** 2
    out = (1.0 / math.pi) * np.exp(-np.abs(f1) ** 2 * wt) * (1.0 + wt * cov)
    return out if out.ndim else float(out)


def expected_count(
    signal: SignalModel,
    sigma: float,
    halfwidth: float,
    step: float | None = None,
) -> float:
    """Midpoint-rule integral of ``rho1`` over the centred box.

    The integrand is smooth but can spike near the origin for strong
    signals, so the step should resolve ``1/A``; the default 1/64 matches
    the coarsest experiment resolution.
    """
    if not (halfwidth >= 0 and math.isfinite(halfwidth)):
        raise ConfigError(f"halfwidth must be finite and non-negative, got {halfwidth}")
    h = _DEFAULT_STEP if step is None else step
    if not (h > 0 and math.isfinite(h)):
        raise ConfigError(f"quadrature step must be positive and finite, got {h}")
    if halfwidth == 0:
        return 0.0
    n = max(1, round(2.0 * halfwidth / h))
    h = 2.0 * halfwidth / n
    mid = -halfwidth + h * (np.arange(n) + 0.5)
    zg = mid[:, None] + 1j * mid[None, :]
    return float(np.sum(rho1(signal, sigma, zg)) * h * h)


def count_in_box(points: PointSet, halfwidth: float) -> int:
    """Number of points in the closed centred box (exact index test)."""
    if not halfwidth >= 0:
        raise ConfigError(f"box halfwidth must be >= 0, got {halfwidth}")
    if halfwidth > points.domain_halfwidth:
        raise ConfigError("box exceeds the point set's domain")
    return int(np.count_nonzero(points.in_box(halfwidth)))


def variance_benchmark(area: float = _OMEGA6_AREA) -> float:
    """Reference std of count/area for the pure-noise model.

    The base constant is for the box of half-width 6; other areas are
    scaled with the count-variance-proportional-to-area heuristic, which
    callers must validate by Monte Carlo before using as a tolerance.
    """
    if not 0 < area < math.inf:
        raise ConfigError(f"area must be positive and finite, got {area}")
    return _VAR_BENCHMARK_OMEGA6 * math.sqrt(_OMEGA6_AREA / area)


# ---------------------------------------------------------------------------
# report rows

@dataclass(frozen=True)
class StatRow:
    """One line of a statistics report."""

    estimator: str
    signal: str
    A: float
    sigma: float
    delta: float
    halfwidth: float
    R: int
    mean: float
    std: float
    se: float


def summary_rows(
    point_sets: list[PointSet],
    signal: SignalModel,
    sigma: float,
    boxes: list[float],
) -> list[StatRow]:
    """Intensity and count-error summaries per method and spacing.

    The point sets are grouped by (method, spacing), in the order of the
    method's tag, then of the spacing.  Per group and box, one
    ``intensity`` row and one ``count_error`` row give the mean, sample std
    and standard error of the estimators over the group's sets; each set is
    counted once, and each box's expected count is integrated once per
    quadrature step ``min(delta, 1/64)``.  Both divide by ``(2*W)**2``,
    though the closed box holds ``(2*W/delta + 1)**2`` lattice points, so
    the intensity reads high by ``(1 + delta/(2*W))**2 - 1``.
    """
    if not point_sets:
        raise ConfigError("need at least one realization")
    groups: dict[tuple[str, float], list[PointSet]] = {}
    for ps in point_sets:
        groups.setdefault((ps.method.name, ps.delta), []).append(ps)
    expected: dict[tuple[float, float], float] = {}  # (box, step) -> expected count
    rows = []
    for (tag, delta), sets in sorted(groups.items()):
        step = min(delta, _DEFAULT_STEP)
        for w in boxes:
            if w <= 0:
                raise ConfigError("halfwidth must be positive")
            area = (2.0 * w) ** 2
            counts = [count_in_box(ps, w) for ps in sets]
            if (w, step) not in expected:
                expected[w, step] = expected_count(signal, sigma, w, step=step)
            expect = expected[w, step]
            for name, vals in (("intensity", [c / area for c in counts]),
                               ("count_error", [(c - expect) / area for c in counts])):
                n = len(vals)
                mean = sum(vals) / n
                std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0)
                rows.append(StatRow(
                    estimator=f"{name}[{tag}]", signal=signal.descriptor(),
                    A=signal.A, sigma=sigma, delta=delta, halfwidth=w, R=n,
                    mean=mean, std=std, se=std / math.sqrt(n),
                ))
    return rows


def write_stats_csv(rows: list[StatRow], path, meta: dict | None = None) -> None:
    write_records(path, StatRow, rows, meta)
