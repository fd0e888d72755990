"""Monte-Carlo check of the flat zero intensity 1/pi.

Repeats the pure-noise simulation over fixed seeds, estimates the density
of detected zeros in a large box with each method, and compares mean and
spread against the closed-form intensity and the area-scaled std
benchmark.  The neighbourhood detectors land on 1/pi; the plain
threshold detector does not.

Takes roughly half a minute.
"""

import math

from bargzeros import (
    METHODS,
    SignalKind,
    SignalModel,
    detect_ladder,
    draw_noise,
    make_grid,
    summary_rows,
    synthesize_field,
    variance_benchmark,
)

REALIZATIONS = 200
DELTA = 2.0**-6
L = 5.0
TARGET = 4.0

grid = make_grid(L=L, delta=DELTA)
signal = SignalModel(SignalKind.ZERO)

detections = {name: [] for name in METHODS}
for seed in range(REALIZATIONS):
    field = synthesize_field(draw_noise(grid, 1.0, seed), signal, grid)
    for (_, name), pts in detect_ladder(field, TARGET, [0], METHODS).items():
        detections[name].append(pts)

benchmark = variance_benchmark(area=(2 * TARGET) ** 2)
print(f"R = {REALIZATIONS} realizations, spacing {DELTA}, box half-width {TARGET}")
print(f"closed form: intensity 1/pi = {1 / math.pi:.5f}, benchmark std = {benchmark:.5f}\n")
print(f"{'method':>6}  {'mean':>8}  {'bias':>8}  {'std':>8}  {'std/benchmark':>13}")
for name, sets in detections.items():
    row = summary_rows(sets, signal, 1.0, [TARGET])[0]  # the intensity row
    print(
        f"{name:>6}  {row.mean:8.5f}  {row.mean - 1 / math.pi:+8.5f}"
        f"  {row.std:8.5f}  {row.std / benchmark:13.2f}"
    )
