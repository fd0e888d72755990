"""Command-line experiment driver.

Four subcommands mirror the experiment pipeline:

* ``simulate``   — draw seeded realizations and cache the weighted fields;
* ``detect``     — run AMN/MGN/ST over a dyadic resolution ladder built by
  subsampling the cached fields (never by re-simulation);
* ``stats``      — aggregate intensity and count-error estimators over the
  detection CSVs, refusing any that record a different signal;
* ``consistency``— match coarse detections against the high-resolution
  proxy and tabulate failure probabilities, refusing a directory whose
  caches record more than one signal.

Spacings are accepted as exact dyadic expressions (``2^-7``) so that grid
parameters never pass through decimal rounding.  Every output file carries
the hash of the generating configuration, inputs included (the headers of
the field caches read, the names and config hashes of the point sets); a
fixed (config, seed list) pair reproduces every byte, and no command
replaces a file that another config wrote.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from pathlib import Path

from . import consistency as cons
from . import detect as det
from . import stats as st_mod
from ._table import write_table
from .errors import ConfigError, DataError
from .grid import make_grid
from .signal import parse_signal
from .simulate import _DTYPE, _read_header, draw_noise, read_field, synthesize_field, write_field


def parse_spacing(text: str) -> float:
    """Parse a grid spacing: ``2^-7``, ``2**-7``, or a plain decimal."""
    text = text.strip()
    m = re.fullmatch(r"2\s*(?:\^|\*\*)\s*\(?(-?\d+)\)?", text)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse spacing {text!r}") from None


def spacing_token(delta: float) -> str:
    """Short file-name token for a spacing; dyadic values stay exact."""
    exp = math.log2(delta)
    if exp == int(exp):
        e = int(exp)
        return f"2m{-e}" if e < 0 else f"2p{e}"
    return repr(delta).replace(".", "p").replace("-", "m")


def _signal_token(model) -> str:
    """File-name token for a signal model, e.g. ``gauss_A1``."""
    return f"{model.kind.value}_A{model.A:g}"


def parse_seeds(text: str) -> list[int]:
    """``0..99`` (inclusive range) or a comma list ``0,5,17``; seeds are
    non-negative."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        seeds = list(range(lo, hi + 1))
    else:
        seeds = _parse_list(text, int, "seeds")
    if min(seeds) < 0:
        raise ConfigError(f"negative seed {min(seeds)}")
    return seeds


def read_config_file(path) -> dict[str, str]:
    """Plain ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # the line that set each key
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {first[key]}")
        first[key] = lineno
        out[key] = val.strip()
    return out


def config_hash(mapping: dict) -> str:
    blob = json.dumps({k: str(v) for k, v in mapping.items()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _setting(args, config: dict[str, str], key: str, default=None, parse=None):
    """Command-line flag > config-file entry > default; ``parse`` reads the
    text of a flag and of a config entry alike."""
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, default)
    if val is None or parse is None:
        return val
    try:
        return parse(val)
    except ValueError as e:  # ConfigError included
        raise ConfigError(f"{key}: {e}") from None


def _config(args) -> dict[str, str]:
    """The subcommand's ``--config`` file, of which every key must be one
    of its flags."""
    if not args.config:
        return {}
    config = read_config_file(args.config)
    unknown = sorted(config.keys() - (vars(args).keys() - {"command", "fn", "config"}))
    if unknown:
        raise ConfigError(f"{args.config}: unknown key(s) for {args.command}: "
                          + ", ".join(unknown))
    return config


def _require(val, key: str):
    if val is None:
        raise ConfigError(f"missing required setting '{key}'")
    return val


def _manifest_runs(path: Path) -> dict:
    """Simulate runs recorded in a cache directory, keyed by config hash."""
    if not path.exists():
        return {}
    try:
        runs = json.loads(path.read_text())["runs"]
        if all(isinstance(r["seeds"], list) and isinstance(r["files"], list)
               for r in runs.values()):
            return runs
    except (ValueError, TypeError, KeyError, AttributeError):
        pass
    raise DataError(f"{path} is not a simulate manifest")


def _cache_header(path: Path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _refuse_replacing(path: Path, h: str) -> None:
    """Refuse to replace a file whose leading ``# config=`` line is not ``h``'s."""
    if not path.exists():
        return
    with open(path, "rb") as fh:
        key, _, val = fh.readline(128).partition(b"=")
    prior = val.strip().decode(errors="replace") if key == b"# config" else None
    if prior != h:
        raise ConfigError(f"{path} holds output of config {prior!r}, not {h!r}; "
                          "write this config to another path")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    config = _config(args)
    L = _require(_setting(args, config, "L", parse=float), "L")
    delta = _require(_setting(args, config, "delta", parse=parse_spacing), "delta")
    T = _setting(args, config, "T", default=6.0, parse=float)
    sigma = _setting(args, config, "sigma", default=1.0, parse=float)
    signal_text = _require(_setting(args, config, "signal"), "signal")
    seeds = _require(_setting(args, config, "seeds", parse=parse_seeds), "seeds")

    grid = make_grid(L=L, delta=delta, T=T)
    model = parse_signal(signal_text, sigma=sigma)
    out = Path(_require(_setting(args, config, "out"), "out"))
    out.mkdir(parents=True, exist_ok=True)

    settings = {"L": L, "delta": delta, "T": T, "sigma": sigma,
                "signal": model.descriptor(), "precision": _DTYPE}
    cfg = {"cmd": "simulate", **settings}
    h = config_hash(cfg)
    manifest = out / "manifest.json"
    runs = _manifest_runs(manifest)
    token = f"{_signal_token(model)}_d{spacing_token(delta)}"
    files = [f"field_{token}_s{seed}.wfield" for seed in seeds]
    owners = {name: k for k, run in runs.items() if k != h for name in run["files"]}
    for name in files:
        if name in owners:
            raise ConfigError(f"{out / name} belongs to simulate config {owners[name]!r}, "
                              f"not {h!r}; write this config to another directory")
        if (out / name).exists():
            header = _cache_header(out / name)
            if ({k: header.get(k) for k in settings} != settings
                    or header.get("n_axis") != grid.n_axis):
                raise ConfigError(f"{out / name} was simulated with other settings; "
                                  "write this config to another directory")
    for seed, name in zip(seeds, files):
        fld = synthesize_field(draw_noise(grid, sigma, seed), model, grid)
        write_field(fld, out / name)
    run = runs.setdefault(h, {"config": cfg, "seeds": [], "files": []})
    run["seeds"] = list(dict.fromkeys(run["seeds"] + seeds))
    run["files"] = list(dict.fromkeys(run["files"] + files))
    manifest.write_text(json.dumps({"runs": runs}, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(files)} field cache(s) to {out} (config {h})")
    return 0


def _iter_fields(fields_dir):
    paths = sorted(Path(fields_dir).glob("*.wfield"))
    if not paths:
        raise DataError(f"no .wfield caches in {fields_dir}")
    return paths


def _parse_list(text: str, parse, what: str) -> list:
    try:
        out = [parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}") from None
    if not out:
        raise ConfigError(f"no {what} in {text!r}")
    seen = set()
    for v in out:
        if v in seen:
            raise ConfigError(f"repeated entry {v!r} in {what} {text!r}")
        seen.add(v)
    return out


def _parse_methods(text: str) -> list[str]:
    names = _parse_list(text, lambda tok: tok.strip().lower(), "methods")
    bad = [n for n in names if n not in det.METHODS]
    if bad:
        raise ConfigError(f"unknown method(s) {bad}; choose from {list(det.METHODS)}")
    return names


def _parse_levels(text: str) -> list[int]:
    levels = _parse_list(text, int, "levels")
    if any(j < 0 for j in levels):
        raise ConfigError("subsampling levels must be >= 0")
    return levels


def cmd_detect(args) -> int:
    config = _config(args)
    methods = _parse_methods(_setting(args, config, "methods", default="amn,mgn,st"))
    levels = _parse_levels(_setting(args, config, "levels", default="0"))
    out = Path(_require(_setting(args, config, "out"), "out"))
    fields_dir = _require(_setting(args, config, "fields"), "fields")
    target = _setting(args, config, "target", parse=float)

    pending = {}  # every CSV to write, checked before the first is written
    for path in _iter_fields(fields_dir):
        field = read_field(path)
        W = target if target is not None else field.grid.L - 1.0
        cfg = {"cmd": "detect", "source": path.name,
               "header": json.dumps(_cache_header(path), sort_keys=True), "target": W,
               "methods": ",".join(methods), "levels": ",".join(map(str, levels))}
        h = config_hash(cfg)
        meta = {"config": h, "source": path.name}
        sig = "x"
        if field.source is not None:
            sig = _signal_token(field.source.signal)
            meta["signal"] = field.source.signal.descriptor()
        for (_, name), ps in det.detect_ladder(field, W, levels, methods).items():
            seed = "x" if ps.seed is None else ps.seed
            csv_path = out / f"points_{name}_{sig}_d{spacing_token(ps.delta)}_s{seed}.csv"
            if csv_path in pending:
                raise ConfigError(f"two caches of this run would write {csv_path}")
            _refuse_replacing(csv_path, h)
            pending[csv_path] = (ps, meta)
    out.mkdir(parents=True, exist_ok=True)
    for csv_path, (ps, meta) in pending.items():
        det.write_pointset_csv(ps, csv_path, meta=meta)
    print(f"wrote {len(pending)} point-set CSV(s) to {out}")
    return 0


def cmd_stats(args) -> int:
    config = _config(args)
    points_dir = _require(_setting(args, config, "points"), "points")
    signal_text = _require(_setting(args, config, "signal"), "signal")
    sigma = _setting(args, config, "sigma", default=1.0, parse=float)
    boxes = _parse_list(_setting(args, config, "boxes", default="1,2,3"), float, "boxes")
    out = Path(_require(_setting(args, config, "out"), "out"))

    model = parse_signal(signal_text, sigma=sigma)
    # only detect's point sets: reports, this one included, may sit among them
    paths = sorted(p for p in Path(points_dir).glob("points_*.csv")
                   if p.resolve() != out.resolve())
    if not paths:
        raise DataError(f"no point-set CSVs in {points_dir}")
    groups: dict[tuple[str, float], list] = {}
    inputs = {}  # each point set's name -> the config that wrote it
    for p in paths:
        meta: dict[str, str] = {}
        ps = det.read_pointset_csv(p, meta=meta)
        if meta.get("signal", model.descriptor()) != model.descriptor():
            raise ConfigError(
                f"{p} holds detections of signal {meta['signal']!r}, not {model.descriptor()!r}"
            )
        inputs[p.name] = meta.get("config")
        groups.setdefault((ps.method.value, ps.delta), []).append(ps)
    cfg = {"cmd": "stats", "signal": model.descriptor(), "sigma": sigma,
           "boxes": ",".join(map(str, boxes)), "inputs": json.dumps(inputs, sort_keys=True)}
    h = config_hash(cfg)
    _refuse_replacing(out, h)

    rows = []
    for (_, delta), sets in sorted(groups.items()):
        rows += st_mod.summary_rows(sets, model, sigma, boxes, step=min(delta, 1.0 / 64.0))
    out.parent.mkdir(parents=True, exist_ok=True)
    st_mod.write_stats_csv(rows, out, meta={"config": h})
    for r in rows:
        print(f"{r.estimator:22s} delta={r.delta:<10g} box={r.halfwidth:g} "
              f"R={r.R} mean={r.mean:+.5f} std={r.std:.5f} se={r.se:.5f}")
    print(f"wrote {out}")
    return 0


def cmd_consistency(args) -> int:
    config = _config(args)
    fields_dir = _require(_setting(args, config, "fields"), "fields")
    methods = _parse_methods(_setting(args, config, "methods", default="amn,mgn,st"))
    levels = _parse_levels(_setting(args, config, "levels", default="1,2,3"))
    proxy_name = _setting(args, config, "proxy", default="amn").lower()
    out = Path(_require(_setting(args, config, "out"), "out"))
    if proxy_name not in ("amn", "mgn"):
        raise ConfigError(f"proxy must be amn or mgn, got {proxy_name!r}")
    if 0 in levels:
        raise ConfigError("consistency levels start at 1 (level 0 is the proxy itself)")
    paths = _iter_fields(fields_dir)
    headers = {p.name: _cache_header(p) for p in paths}
    for key in ("signal", "L", "delta", "T", "sigma"):
        values = sorted({str(header.get(key)) for header in headers.values()})
        if len(values) > 1:
            raise ConfigError(f"{fields_dir} holds caches of {len(values)} {key}s "
                              f"({', '.join(values)}), which one failure table would pool; "
                              f"give each {key} its own directory")
    cfg = {"cmd": "consistency", "proxy": proxy_name, "methods": ",".join(methods),
           "levels": ",".join(map(str, levels)), "inputs": json.dumps(headers, sort_keys=True)}
    h = config_hash(cfg)
    agg_path = out.with_name(out.stem + "_aggregate" + out.suffix)
    for target in (out, agg_path):
        _refuse_replacing(target, h)

    rows = []
    for path in paths:
        field = read_field(path)
        rows += cons.ladder_rows(field, field.grid.L - 1.0, levels, methods, proxy_name)
    out.parent.mkdir(parents=True, exist_ok=True)
    cons.write_consistency_csv(rows, out, meta={"config": h})

    deltas, names, table = cons.aggregate_failure_table(rows)
    write_table(agg_path, ["delta", *names],
                ([d, *(f"{table.get((d, m), float('nan')):.4f}" for m in names)] for d in deltas),
                meta={"config": h})
    print("failure probability p(delta, method):")
    print("  delta      " + "  ".join(f"{m:>6s}" for m in names))
    for d in deltas:
        cells = "  ".join(f"{table.get((d, m), float('nan')):6.3f}" for m in names)
        print(f"  {d:<9g}  {cells}")
    print(f"wrote {out} and {agg_path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bargzeros",
        description="Simulate noisy Bargmann-transform fields, detect their "
                    "zeros, and validate the detected point process.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw seeded field realizations into a cache dir")
    sim.add_argument("--config", help="key = value file; flags override it")
    sim.add_argument("--L")
    sim.add_argument("--delta", help="grid spacing, e.g. 2^-6")
    sim.add_argument("--T")
    sim.add_argument("--sigma")
    sim.add_argument("--signal", help="zero | gauss:A=<a> | hermite1:A=<a>")
    sim.add_argument("--seeds", help="e.g. 0..99 or 3,5,8")
    sim.add_argument("--out")
    sim.set_defaults(fn=cmd_simulate)

    dt = sub.add_parser("detect", help="run detectors over a subsampling ladder")
    dt.add_argument("--config")
    dt.add_argument("--fields", help="directory of .wfield caches")
    dt.add_argument("--methods", help="comma list from amn,mgn,st")
    dt.add_argument("--levels", help="subsampling levels, e.g. 0,1,2")
    dt.add_argument("--target", help="target box halfwidth (default L-1)")
    dt.add_argument("--out")
    dt.set_defaults(fn=cmd_detect)

    stc = sub.add_parser("stats", help="aggregate estimators over detection CSVs")
    stc.add_argument("--config")
    stc.add_argument("--points", help="directory of point-set CSVs")
    stc.add_argument("--signal")
    stc.add_argument("--sigma")
    stc.add_argument("--boxes", help="comma list of box halfwidths")
    stc.add_argument("--out")
    stc.set_defaults(fn=cmd_stats)

    cns = sub.add_parser("consistency", help="failure table against the hi-res proxy")
    cns.add_argument("--config")
    cns.add_argument("--fields")
    cns.add_argument("--methods")
    cns.add_argument("--levels", help="subsampling levels >= 1")
    cns.add_argument("--proxy", help="amn (default) or mgn")
    cns.add_argument("--out")
    cns.set_defaults(fn=cmd_consistency)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
