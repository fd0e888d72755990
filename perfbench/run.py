"""Benchmark runner for bargzeros.

    python3 perfbench/run.py --workload mc-ladder --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/`` of
the same checkout.  ``setup_s`` is the time from process start to the
first timed unit: imports, the workload's set-up and one warm-up unit.
It is the median of this process and ``SETUP_SAMPLES - 1`` fresh
processes that stop at that point, so a cache built on first use is paid
in every sample.  Units then run back to back (a closed loop, one
caller) on fresh inputs for ``--seconds``; each is preceded by a timed
calibration kernel and its outputs are checked, outside the timed region,
against ``reference.json``.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` every second unit runs with every public function wrapped
in a span; the result carries the per-layer metrics plus the tracing
overhead.  The last stdout line is the JSON result; the lines before it
give run provenance and the full report, which is also written to
``perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: processes whose time to the first timed unit makes up ``setup_s``
SETUP_SAMPLES = 3
#: at least this many units run, whatever ``--seconds`` is
MIN_UNITS = 4
#: repeats of an input faster than this share of first runs mean memoized outputs
MEMO_RATIO = 0.5
#: a unit_tail_ms is reported only at or above this percentile
TAIL_MIN_PERCENTILE = 90.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed unit and print setup_s")
    return ap.parse_args(argv)


def import_package():
    """Import the checkout's own package (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "bargzeros" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}")
    sys.path.insert(0, str(src))
    import bargzeros
    if Path(bargzeros.__file__).resolve().parent != (src / "bargzeros").resolve():
        raise SystemExit(f"error: imported bargzeros from {bargzeros.__file__}, not {src}")
    import workloads
    return workloads


# -- provenance -------------------------------------------------------------------

def git_commit(root: Path):
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, units: int) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
    }


# -- the closed loop ----------------------------------------------------------------

class Phase:
    """Wall times, calibration times and check outcomes of a loop's units."""

    def __init__(self) -> None:
        self.units: list[tuple] = []  # (input key, wall_ns, calibration_ns)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, key, wall, cal_ns: int, errors: list[str]) -> None:
        self.attempted += 1
        if wall is not None:
            self.units.append((key, wall, cal_ns))
        if errors:
            self.failed += 1
            self.errors.extend(errors[:2])

    @property
    def walls_ns(self) -> list[int]:
        return [w for _, w, _ in self.units]

    @property
    def ratios(self) -> list[float]:
        """Each unit's wall time in multiples of its calibration kernel."""
        return [w / c for _, w, c in self.units]

    @property
    def units_per_s(self) -> float:
        walls = self.walls_ns
        return len(walls) / (sum(walls) / 1e9)

    def memo_errors(self) -> list[str]:
        """Flag repeats of an input that run far faster than first runs.

        Inputs repeat only where a workload's pool is smaller than a run
        (the refine bank; any pool, once the package gets fast enough).  A
        faster program speeds first runs and repeats alike; outputs
        memoized per input speed only the repeats."""
        first, repeats, seen = [], [], set()
        for key, wall, cal in self.units:
            (repeats if key in seen else first).append(wall / cal)
            seen.add(key)
        if not repeats:
            return []
        ratio = statistics.median(repeats) / statistics.median(first)
        if ratio < MEMO_RATIO:
            return [f"repeated inputs ran {1 / ratio:.1f}x faster than their first runs: "
                    "outputs look memoized per input"]
        return []


def run_unit(wl, i: int, tracer=None):
    """Time one unit; returns (wall_ns, errors)."""
    try:
        t0 = time.perf_counter_ns()
        if tracer is None:
            result = wl.unit(i)
        else:
            with tracer.unit_span():
                result = wl.unit(i)
        wall = time.perf_counter_ns() - t0
    except Exception as e:  # a unit that raises is a failed unit, not a crash
        return None, [f"unit {i} raised {type(e).__name__}: {e}"]
    try:
        return wall, wl.check(i, result)
    except Exception as e:  # output the check cannot even parse is wrong output
        return wall, [f"unit {i}: checking raised {type(e).__name__}: {e}"]


def calibrate(wl) -> int:
    t0 = time.perf_counter_ns()
    wl.calibrate()
    return time.perf_counter_ns() - t0


def run_loop(wl, seconds: float, tracer=None):
    """Closed loop over inputs 1, 2, ... until ``seconds`` have passed.

    This machine's speed switches between a fast and a ~1.7x slower state,
    every few seconds or only after minutes.  Right before each unit the
    workload's calibration kernel, NumPy work of the same kind that never
    calls the package, runs and is timed, so each unit's wall time can be
    read against the machine's speed at that moment.  With a tracer every
    second unit runs traced, so the overhead compares units interleaved
    over the same stretch of time.  Returns the untraced and the traced
    phase (or None)."""
    untraced = Phase()
    traced = Phase() if tracer else None
    start = time.perf_counter()
    i = 0
    while i < MIN_UNITS or time.perf_counter() - start < seconds:
        i += 1  # input 0 is the warm-up
        cal_ns = calibrate(wl)
        if tracer and i % 2 == 0:
            with tracer.patched():
                wall, errors = run_unit(wl, i, tracer)
            traced.record(wl.key(i), wall, cal_ns, errors)
        else:
            wall, errors = run_unit(wl, i)
            untraced.record(wl.key(i), wall, cal_ns, errors)
        if untraced.failed and not untraced.units:
            break
    return untraced, traced


def tail(walls_ns: list[int]):
    """Highest nearest-rank percentile with at least ten units above it."""
    n = len(walls_ns)
    rank = n - 10
    pct = 100.0 * rank / n if n else 0.0
    if pct < TAIL_MIN_PERCENTILE:
        return {"value": None, "percentile": None, "samples": n,
                "reason": f"needs >= {int(10 / (1 - TAIL_MIN_PERCENTILE / 100))} units"}
    return {"value": sorted(walls_ns)[rank - 1] / 1e6, "unit": "ms",
            "percentile": round(pct, 2), "samples": n}


def cold_setup_s(args) -> float:
    """``setup_s`` of a fresh process that stops at its first timed unit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    import tracer as tracing

    reference = json.loads((HERE / "reference.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, reference, RESULTS / "work", tracer)
    try:
        wl.setup()
        wl.calibrate()
        setup_errors = wl.check_setup()
        setup_errors += run_unit(wl, 0)[1]  # warm-up
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        untraced, traced = run_loop(wl, args.seconds, tracer)
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [setup_s] + [cold_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
                                 if not args.trace]

    phases = [untraced] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = setup_errors + [e for p in phases for e in p.errors]
    errors += [e for p in phases for e in p.memo_errors()]
    walls = untraced.walls_ns
    if not walls or (traced and not traced.units):
        raise SystemExit(f"error: no unit completed: {errors[:3]}")

    end_to_end = {
        "unit_p50_cal": (statistics.median(untraced.ratios), "cal"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "workload": args.workload,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "units_per_s": {"value": untraced.units_per_s, "unit": "1/s"},
        "unit_p50_ms": {"value": statistics.median(walls) / 1e6, "unit": "ms"},
        "unit_tail_ms": tail(walls),
        "calibration_p50_ms": {"value": statistics.median(c for _, _, c in untraced.units) / 1e6,
                               "unit": "ms"},
        "distinct_inputs": len({k for k, _, _ in untraced.units}),
        "failed_fraction": {"value": failed / attempted, "unit": "fraction",
                            "failed": failed, "attempted": attempted},
        "setup_samples_s": setup_samples,
        "errors": errors[:20],
    }
    if traced:
        traced_walls = traced.walls_ns
        metrics = tracer.layer_metrics(len(traced_walls), sum(traced_walls))
        metrics["trace.units_per_s"] = (traced.units_per_s, "1/s")
        metrics["trace.untraced_units_per_s"] = (untraced.units_per_s, "1/s")
        metrics["trace.overhead"] = (untraced.units_per_s / traced.units_per_s, "ratio")
        metrics["trace.unit_ms"] = (sum(traced_walls) / len(traced_walls) / 1e6, "ms")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = end_to_end

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(args, len(walls))
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    walls_ms = {name: [(k, w / 1e6, c / 1e6) for k, w, c in phase.units]
                for name, phase in (("untraced", untraced), ("traced", traced)) if phase}
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "report": report, "result": result, "units_key_wall_cal_ms": walls_ms},
        indent=1) + "\n")
    if traced:
        tracer.write_csv(RESULTS / f"{stem}-spans.csv")

    print(json.dumps({"provenance": prov}))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
