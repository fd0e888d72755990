"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from bargzeros import GridSpec, WeightedField, make_grid


def synthetic_field(grid: GridSpec, F) -> WeightedField:
    """Build a field directly from a closed-form transform ``F`` (stored,
    as always, with the Gaussian weight)."""
    ax = grid.axis()
    zg = ax[:, None] + 1j * ax[None, :]
    values = np.exp(-0.5 * np.abs(zg) ** 2) * np.asarray(F(zg), dtype=np.complex128)
    return WeightedField(grid=grid, values=values, source=None)


@pytest.fixture
def grid16() -> GridSpec:
    """Small grid with spacing 1/16, handy for hand-checked geometry."""
    return make_grid(L=3, delta=2.0 ** -4)
