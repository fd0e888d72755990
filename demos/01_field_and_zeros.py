"""One realization end to end: simulate, detect, refine.

Draws pure complex white noise, synthesizes the weighted transform on a
grid of spacing 2^-6, runs the three detectors over the same box, and
then polishes the first few detections off-grid to show that they really
sit on zeros.
"""

import numpy as np

from bargzeros import (
    Method,
    SignalKind,
    SignalModel,
    detect_ladder,
    draw_noise,
    make_grid,
    refine_zero,
    synthesize_field,
)

SEED = 42
DELTA = 2.0**-6
L = 3.0
TARGET = 2.0  # count zeros in the box of half-width 2

grid = make_grid(L=L, delta=DELTA)
noise = draw_noise(grid, sigma=1.0, seed=SEED)
field = synthesize_field(noise, SignalModel(SignalKind.ZERO), grid)
print(f"synthesized {grid.n_axis}x{grid.n_axis} samples at spacing {DELTA}")

area = (2 * TARGET) ** 2
print(f"\nexpected number of zeros in the target box: {area / np.pi:.2f}")
found = detect_ladder(field, TARGET, [0], Method)
for (_, m), pts in found.items():
    print(f"  {m.value}: {len(pts.points)} detections")

zeros = found[0, Method.AMN]
print("\nrefining the first five detections (radius 2*delta, 4 passes):")
print(f"{'detected':>22}  {'refined':>22}  {'|V| after':>10}")
for p in zeros.points[:5]:
    loc, mag = refine_zero(field.source, complex(p), 2 * DELTA, 4)
    print(f"{p:>22.4f}  {loc:>22.6f}  {mag:>10.2e}")

sep = zeros.min_separation() * DELTA
print(f"\nminimal separation between detections: {sep:.4f} (>= 5*delta = {5 * DELTA})")
