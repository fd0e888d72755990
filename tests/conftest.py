"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from bargzeros import ConfigError, GridSpec, WeightedField, make_grid


def synthetic_field(grid: GridSpec, F) -> WeightedField:
    """Build a field directly from a closed-form transform ``F`` (stored,
    as always, with the Gaussian weight)."""
    ax = grid.axis()
    zg = ax[:, None] + 1j * ax[None, :]
    values = np.exp(-0.5 * np.abs(zg) ** 2) * np.asarray(F(zg), dtype=np.complex128)
    return WeightedField(grid=grid, values=values, source=None)


def index_of(grid: GridSpec, z: complex) -> tuple[int, int]:
    """The index pair of the stored point ``z`` of ``grid``, the exact
    inverse of ``grid.point_of``; raises for off-grid points."""
    k = round((z.real + grid.L) / grid.delta)
    l = round((z.imag + grid.L) / grid.delta)
    if not (0 <= k < grid.n_axis and 0 <= l < grid.n_axis) or grid.point_of(k, l) != z:
        raise ConfigError(f"{z} is not a stored grid point")
    return k, l


def covariance_probe(fields: list[WeightedField], z: complex, w: complex) -> complex:
    """Empirical covariance of the weighted field at two grid points
    across realizations."""
    if len(fields) < 2:
        raise ConfigError("covariance needs at least two realizations")
    zs = np.array([f.values[index_of(f.grid, z)] for f in fields])
    ws = np.array([f.values[index_of(f.grid, w)] for f in fields])
    return complex(np.mean(zs * np.conj(ws)) - np.mean(zs) * np.conj(np.mean(ws)))


@pytest.fixture
def grid16() -> GridSpec:
    """Small grid with spacing 1/16, handy for hand-checked geometry."""
    return make_grid(L=3, delta=2.0 ** -4)
