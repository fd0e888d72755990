"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller: ``unit(i)`` runs one unit
of work and returns what ``check(i, result)`` needs; the runner times only
``unit``, and ``calibrate()`` right before it.  Inputs come from a fixed
pool of realization seeds, permuted by the workload seed, so every unit
has reference digests generated from the package at the commit that
defined the benchmark (``make_reference.py`` writes ``reference.json``).
Unit ``i`` gets a fresh input until the pool runs out; ``key(i)`` names
the input, so the runner can tell a repeat from a first run.

The package is driven only through its public functions, always looked up
on their module at call time (``detect.amn``, not a local alias), so the
traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np

from bargzeros import cli, consistency, detect, grid, simulate, stats
from bargzeros.signal import SignalKind, SignalModel, model_for, parse_signal
from bargzeros.simulate import WeightedField

SIGMA = 1.0
ZERO = SignalModel(SignalKind.ZERO)
METHODS = ("amn", "mgn", "st")

#: |grid sample - evaluate_continuous| allowed by the synthesis spot-check;
#: measured at most 1.1e-15 on fields of magnitude up to ~2 (n = 385..1537)
SYNTH_ATOL = 1e-11
#: relative slack on "refined |V| no worse than the reference refinement"
REFINE_RTOL = 1e-6
#: relative / absolute tolerance on floats parsed back from the CLI's CSVs
CSV_RTOL, CSV_ATOL = 1e-9, 1e-12

# The checks call the package functions captured here, before any tracing
# wraps them, so checking adds nothing to the trace.
_evaluate = simulate.evaluate_continuous
_read_field = simulate.read_field
_read_pointset = detect.read_pointset_csv


# -- calibration kernels ----------------------------------------------------------
# NumPy work of the kind a unit does, which never calls the package.  The
# runner times one right before each unit, so the unit's wall time can be
# read against the machine's speed at that moment.  On a 2-vCPU Xeon VM
# whose speed drifts by up to 1.7x, the median unit time spread by 0.08 to
# 0.16 (IQR / median, 10 seeds x 25 s) and the median ratio to the kernel
# by 0.008 to 0.056.  The kernels run for 5-12% of a unit; a shorter one
# adds noise of its own.

_CAL_RNG = np.random.default_rng(0)
_CAL_T = np.linspace(-6.0, 6.0, 1537)
_CAL_A = _CAL_RNG.standard_normal(_CAL_T.size) + 0j
_CAL_BIG = _CAL_RNG.standard_normal(1 << 18) + 0j


def small_array_kernel(reps: int) -> complex:
    """Windowed exponential sums over 1537 samples, the shape of one
    ``evaluate_continuous`` call at delta = 2^-7."""
    acc = 0j
    for k in range(reps):
        acc += np.sum(_CAL_A * np.exp(-((_CAL_T - 0.01 * k) ** 2)) * np.exp(0.6j * _CAL_T))
    return acc


def fft_kernel(reps: int) -> float:
    """FFTs and products of 4 MB arrays, the working set of synthesis and
    detection on the large grids."""
    acc = 0.0
    for _ in range(reps):
        acc += float(np.abs(np.fft.fft(_CAL_BIG) * _CAL_BIG).sum())
    return acc


def digest(ps) -> str:
    """Count and hash of a point set's sorted lattice indices."""
    kl = np.ascontiguousarray(ps.kl, dtype="<i8")
    return f"{len(kl)}:{hashlib.sha256(kl.tobytes()).hexdigest()[:16]}"


def spot_check(field, n_points: int, seed: int) -> float:
    """Largest |grid value - direct sum| over a few random grid samples."""
    rng = np.random.default_rng(seed)
    g = field.grid
    worst = 0.0
    for k, l in rng.integers(0, g.n_axis, size=(n_points, 2)):
        direct = _evaluate(field.source, g.point_of(int(k), int(l)))
        worst = max(worst, abs(field.values[k, l] - direct))
    return worst


def _spot_errors(field, n_points: int, seed: int, what: str) -> list[str]:
    err = spot_check(field, n_points, seed)
    return [] if err <= SYNTH_ATOL else [f"{what}: grid vs direct sum differs by {err:.3g}"]


def _permutation(pool: int, seed: int) -> list[int]:
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_ATOL + CSV_RTOL * abs(b)


class Workload:
    """Shared constructor and no-op hooks; ``tracer`` is set on traced runs."""

    name = ""

    def __init__(self, seed: int, reference: dict, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.ref = reference.get(self.name, {})
        self.workdir = workdir
        self.tracer = tracer

    def key(self, i: int):
        return i

    def check_setup(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class McLadder(Workload):
    """Acceptance fixture 4's traffic: one seed per unit at n = 1537."""

    name = "mc-ladder"
    POOL = 200  # the fixture's seed range
    GRID = dict(L=3, delta=2.0**-8, T=6)
    TARGET = 2.0
    LEVELS = 3

    def setup(self) -> None:
        self.order = _permutation(self.POOL, self.seed)
        self.grid = grid.make_grid(**self.GRID)
        gauss1 = model_for(SignalKind.GAUSS, 1.0)
        self.mean = simulate.synthesize_field(simulate.zero_noise(self.grid), gauss1, self.grid)

    def check_setup(self) -> list[str]:
        return _spot_errors(self.mean, 4, 0, "mean field")

    def key(self, i: int) -> int:
        return self.order[i % self.POOL]

    def calibrate(self) -> None:
        fft_kernel(3)

    def observe(self, seed: int):
        """One seed of the fixture: synthesis, proxy, 3 levels x 3 methods,
        greedy certificates, and the matching oracle on certified runs."""
        g = self.grid
        noise = simulate.synthesize_field(simulate.draw_noise(g, SIGMA, seed), ZERO, g)
        record = []
        for tag, vals in (("zero", noise.values), ("gauss1", noise.values + self.mean.values)):
            f_hi = WeightedField(grid=g, values=vals)
            proxy = detect.amn(f_hi, self.TARGET)
            record.append(f"{tag} proxy {digest(proxy)}")
            f_lo = f_hi
            for level in range(1, self.LEVELS + 1):
                f_lo = grid.subsample(f_lo)
                d_lo = f_lo.grid.delta
                for name in METHODS:
                    z_lo = getattr(detect, name)(f_lo, self.TARGET)
                    match = consistency.greedy_match(proxy, z_lo, d_lo)
                    oracle = None
                    if match.certificate == 0:
                        oracle = consistency.wasserstein_within(
                            proxy, z_lo, self.TARGET, 2.0 * d_lo, 2.0 * d_lo)
                    record.append(f"{tag} {level} {name} {digest(z_lo)} "
                                  f"cert={match.certificate} oracle={oracle}")
        return noise, record

    def unit(self, i: int):
        seed = self.key(i)
        noise, record = self.observe(seed)
        return seed, noise, record

    def check(self, i: int, result) -> list[str]:
        seed, noise, record = result
        errors = [f"seed {seed}: greedy certificate 0 refuted by the oracle: {r}"
                  for r in record if "cert=0 oracle=0" in r]
        want = self.ref[str(seed)]
        if record != want:
            diff = [f"{a} != {b}" for a, b in zip(record, want) if a != b]
            errors.append(f"seed {seed}: detections differ from reference: {diff[:3]}")
        errors += _spot_errors(noise, 4, seed, f"seed {seed}")
        return errors


class Refine(Workload):
    """One off-grid ``refine_zero`` per unit over a bank of detections."""

    name = "refine"
    POOL = 64
    BANK = 4
    GRID = dict(L=3, delta=2.0**-7, T=6)
    TARGET = 2.0
    LEVELS = 4

    def setup(self) -> None:
        g = grid.make_grid(**self.GRID)
        self.radius = 2.0 * g.delta
        self.fields = []
        self.bank = []
        for s in _permutation(self.POOL, self.seed)[: self.BANK]:
            f = simulate.synthesize_field(simulate.draw_noise(g, SIGMA, s), ZERO, g)
            pts = detect.amn(f, self.TARGET)
            self.fields.append((s, f, pts))
            for j, p in enumerate(pts.points):
                self.bank.append((s, j, f.source, complex(p)))

    def check_setup(self) -> list[str]:
        errors = []
        for s, f, pts in self.fields:
            if digest(pts) != self.ref[str(s)]["amn"]:
                errors.append(f"seed {s}: amn detections differ from reference")
            errors += _spot_errors(f, 4, s, f"seed {s}")
        self.fields = []  # the loop needs only the sources
        if not self.bank:
            errors.append("detection bank is empty")
        return errors

    def key(self, i: int) -> int:
        return i % len(self.bank)

    def calibrate(self) -> None:
        small_array_kernel(30)

    def unit(self, i: int):
        s, j, source, p = self.bank[self.key(i)]
        loc, mag = simulate.refine_zero(source, p, radius=self.radius, levels=self.LEVELS)
        return s, j, p, loc, mag

    def check(self, i: int, result) -> list[str]:
        s, j, p, loc, mag = result
        ref_mag = self.ref[str(s)]["refined"][j]
        moved = max(abs(loc.real - p.real), abs(loc.imag - p.imag))
        errors = []
        if not mag < 1e-2:
            errors.append(f"seed {s} zero {j}: refined |V| = {mag:.3g} >= 1e-2")
        if moved > self.radius + 1e-12:
            errors.append(f"seed {s} zero {j}: moved {moved:.3g} > 2*delta")
        if mag > ref_mag * (1.0 + REFINE_RTOL):
            errors.append(f"seed {s} zero {j}: |V| = {mag:.6g} worse than reference {ref_mag:.6g}")
        return errors


class CliPipeline(Workload):
    """The four CLI subcommands in-process, into a fresh directory per pass."""

    name = "cli-pipeline"
    POOL = 400
    SEEDS = 20
    L, DELTA, DELTA_TOKEN, T = 3.0, 2.0**-6, "2^-6", 6.0
    SIGNAL = "zero"
    DETECT_LEVELS = (0, 1)
    BOXES = (1.0, 2.0)
    CONSISTENCY_LEVELS = (1, 2)

    root = None

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        self.order = _permutation(self.POOL, self.seed)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)

    def key(self, i: int) -> int:
        return i % (self.POOL // self.SEEDS)

    def pass_seeds(self, i: int) -> list[int]:
        k = self.key(i) * self.SEEDS
        return sorted(self.order[k: k + self.SEEDS])

    def calibrate(self) -> None:
        fft_kernel(12)

    def argv(self, d: Path, seeds: list[int]) -> dict[str, list[str]]:
        return {
            "simulate": ["simulate", "--out", str(d / "fields"), "--L", f"{self.L:g}",
                         "--delta", self.DELTA_TOKEN, "--T", f"{self.T:g}", "--signal", self.SIGNAL,
                         "--sigma", "1", "--seeds", ",".join(map(str, seeds))],
            "detect": ["detect", "--fields", str(d / "fields"), "--out", str(d / "points"),
                       "--methods", ",".join(METHODS),
                       "--levels", ",".join(map(str, self.DETECT_LEVELS))],
            "stats": ["stats", "--points", str(d / "points"), "--signal", self.SIGNAL,
                      "--sigma", "1", "--boxes", ",".join(f"{b:g}" for b in self.BOXES),
                      "--out", str(d / "stats.csv")],
            "consistency": ["consistency", "--fields", str(d / "fields"),
                            "--methods", ",".join(METHODS),
                            "--levels", ",".join(map(str, self.CONSISTENCY_LEVELS)),
                            "--proxy", "amn", "--out", str(d / "consistency.csv")],
        }

    def unit(self, i: int):
        seeds = self.pass_seeds(i)
        d = Path(tempfile.mkdtemp(prefix=f"pass{i}-", dir=self.root))
        codes, log = [], io.StringIO()
        for stage, argv in self.argv(d, seeds).items():
            span = self.tracer.span(f"cli.{stage}") if self.tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes.append(cli.main(argv))
        return d, seeds, codes, log.getvalue()

    # -- checks ---------------------------------------------------------------

    def check(self, i: int, result) -> list[str]:
        d, seeds, codes, log = result
        try:
            if any(codes):
                return [f"pass {i}: exit codes {codes}: {log[-300:]!r}"]
            return (self._check_points(d, seeds) + self._check_stats(d, seeds)
                    + self._check_consistency(d, seeds) + self._check_fields(d, seeds))
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _ref(self, seed: int) -> dict:
        return self.ref["seeds"][str(seed)]

    def _level(self, delta: float) -> int:
        return round(math.log2(delta / self.DELTA))

    def _check_points(self, d: Path, seeds) -> list[str]:
        seen = {}
        for path in sorted((d / "points").glob("*.csv")):
            ps = _read_pointset(path)
            key = (ps.method.value.lower(), self._level(ps.delta), ps.seed)
            if key in seen:
                return [f"two point sets for {key}"]
            seen[key] = digest(ps)
        want = {(m, lv, s): self._ref(s)["points"][m][lv]
                for s in seeds for m in METHODS for lv in self.DETECT_LEVELS}
        if seen != want:
            bad = sorted(k for k in want.keys() | seen.keys() if seen.get(k) != want.get(k))
            return [f"point sets differ from reference at {bad[:4]}"]
        return []

    def _expected_stats(self, seeds) -> dict:
        rows = {}
        for m in METHODS:
            for lv in self.DETECT_LEVELS:
                delta = self.DELTA * 2**lv
                for b, box in enumerate(self.BOXES):
                    area = (2.0 * box) ** 2
                    counts = [self._ref(s)["counts"][m][lv][b] for s in seeds]
                    expect = self.ref["expected"][str(lv)][b]
                    for est, vals in (("intensity", [c / area for c in counts]),
                                      ("count_error", [(c - expect) / area for c in counts])):
                        n = len(vals)
                        mean = sum(vals) / n
                        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
                        rows[(f"{est}[{m.upper()}]", delta, box)] = (n, mean, std, std / math.sqrt(n))
        return rows

    def _check_stats(self, d: Path, seeds) -> list[str]:
        got = {}
        for rec in _csv_rows(d / "stats.csv"):
            key = (rec["estimator"], float(rec["delta"]), float(rec["halfwidth"]))
            got[key] = (int(rec["R"]), float(rec["mean"]), float(rec["std"]), float(rec["se"]))
        want = self._expected_stats(seeds)
        if got.keys() != want.keys():
            return [f"stats rows {sorted(got)[:3]}... differ from expected {sorted(want)[:3]}..."]
        bad = [k for k in want
               if got[k][0] != want[k][0] or not all(map(_close, got[k][1:], want[k][1:]))]
        return [f"stats values differ from reference at {bad[:3]}"] if bad else []

    def _check_consistency(self, d: Path, seeds) -> list[str]:
        got = {}
        for rec in _csv_rows(d / "consistency.csv"):
            key = (int(rec["seed"]), rec["method"].lower(), self._level(float(rec["delta_lo"])))
            got[key] = (int(rec["n_hi"]), int(rec["n_lo"]), int(rec["certificate"]),
                        float(rec["max_distortion"]))
        want = {}
        for s in seeds:
            for m in METHODS:
                for j, lv in enumerate(self.CONSISTENCY_LEVELS):
                    want[(s, m, lv)] = tuple(self._ref(s)["consistency"][m][j])
        if got.keys() != want.keys():
            return ["consistency rows differ from reference in their keys"]
        bad = [k for k in want if got[k][:3] != want[k][:3] or not _close(got[k][3], want[k][3])]
        if bad:
            return [f"consistency rows differ from reference at {bad[:3]}"]

        aggregates = sorted(d.glob("consistency*aggregate*.csv"))
        if len(aggregates) != 1:
            return [f"expected one aggregate failure table, found {len(aggregates)}"]
        errors = []
        for rec in _csv_rows(aggregates[0]):
            lv = self._level(float(rec["delta"]))
            for m in METHODS:
                certs = [want[(s, m, lv)][2] for s in seeds]
                if abs(float(rec[m.upper()]) - sum(certs) / len(certs)) > 5.1e-5:
                    errors.append(f"aggregate failure rate for {m} at level {lv} differs")
        return errors

    def _check_fields(self, d: Path, seeds) -> list[str]:
        """Each cache reads back to a field whose samples match the
        direct sum of its regenerated source."""
        paths = sorted((d / "fields").glob("*.wfield"))
        if len(paths) != len(seeds):
            return [f"{len(paths)} field caches for {len(seeds)} seeds"]
        errors = []
        for path in paths:
            f = _read_field(path)
            errors += _spot_errors(f, 2, f.seed, path.name)
        return errors


def _csv_rows(path: Path) -> list[dict]:
    """Rows of a CSV with a header, skipping ``#`` provenance lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


WORKLOADS = {w.name: w for w in (McLadder, CliPipeline, Refine)}


# -- reference data -------------------------------------------------------------

def reference_mc_ladder() -> dict:
    wl = McLadder(0, {}, Path("."))
    wl.setup()
    return {str(s): wl.observe(s)[1] for s in range(wl.POOL)}


def reference_refine() -> dict:
    g = grid.make_grid(**Refine.GRID)
    out = {}
    for s in range(Refine.POOL):
        f = simulate.synthesize_field(simulate.draw_noise(g, SIGMA, s), ZERO, g)
        pts = detect.amn(f, Refine.TARGET)
        mags = [simulate.refine_zero(f.source, complex(p), 2.0 * g.delta, Refine.LEVELS)[1]
                for p in pts.points]
        out[str(s)] = {"amn": digest(pts), "refined": mags}
    return out


def reference_cli() -> dict:
    """Per-seed expectations for the CLI pass, computed through the library
    rather than the CLI, so the check also covers the CLI's wiring."""
    c = CliPipeline
    g = grid.make_grid(L=c.L, delta=c.DELTA, T=c.T)
    model = parse_signal(c.SIGNAL, sigma=SIGMA)
    seeds = {}
    for s in range(c.POOL):
        f = simulate.synthesize_field(simulate.draw_noise(g, SIGMA, s), model, g)
        ladder = [f]
        for _ in range(max(c.CONSISTENCY_LEVELS)):
            ladder.append(grid.subsample(ladder[-1]))
        target = c.L - 1.0
        proxy = detect.amn(f, target)
        entry = {"points": {}, "counts": {}, "consistency": {}}
        for m in METHODS:
            found = {lv: getattr(detect, m)(ladder[lv], target)
                     for lv in set(c.DETECT_LEVELS) | set(c.CONSISTENCY_LEVELS)}
            entry["points"][m] = [digest(found[lv]) for lv in c.DETECT_LEVELS]
            entry["counts"][m] = [[stats.count_in_box(found[lv], b) for b in c.BOXES]
                                  for lv in c.DETECT_LEVELS]
            rows = []
            for lv in c.CONSISTENCY_LEVELS:
                match = consistency.greedy_match(proxy, found[lv], ladder[lv].grid.delta)
                rows.append([len(proxy), len(found[lv]), match.certificate, match.max_distortion])
            entry["consistency"][m] = rows
        seeds[str(s)] = entry
    expected = {
        str(lv): [stats.expected_count(model, SIGMA, b, step=min(c.DELTA * 2**lv, 1.0 / 64.0))
                  for b in c.BOXES]
        for lv in c.DETECT_LEVELS
    }
    return {"seeds": seeds, "expected": expected}
