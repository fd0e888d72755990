"""Command-line experiment driver.

Four subcommands mirror the experiment pipeline:

* ``simulate``   — draw seeded realizations and cache the weighted fields
  (``--T`` accepts only 6), replacing a cache only if its header is the
  one this run would write (:attr:`~bargzeros.simulate.FieldSource.header`);
* ``detect``     — run AMN/MGN/ST over a dyadic resolution ladder built by
  subsampling the cached fields (never by re-simulation);
* ``stats``      — aggregate intensity and count-error estimators over the
  detection CSVs, refusing any that record a different signal, sigma or T;
* ``consistency``— match coarse detections against the high-resolution
  proxy and tabulate failure probabilities, refusing a directory whose
  cache headers differ in anything but the seed.

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
from .grid import WINDOW_T, Method, make_grid
from .signal import parse_signal
from .simulate import FieldSource, read_field, read_header, synthesize_field, write_field


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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
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


def _refuse_pooling(where, headers) -> None:
    """Refuse the caches in directory ``where`` if their ``headers`` differ
    in any key but the seed, since one failure table would pool them; keys
    are checked in sorted order, and a header without a key is not counted."""
    for key in sorted({key for h in headers for key in h} - {"seed"}):
        values = sorted({str(h[key]) for h in headers if key in h})
        if len(values) > 1:
            raise ConfigError(f"{where} holds caches of {len(values)} {key}s "
                              f"({', '.join(values)}), which one failure table would pool; "
                              f"give each {key} its own directory")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    L, delta, T, sigma, seeds, out = args.L, args.delta, args.T, args.sigma, args.seeds, args.out
    grid = make_grid(L=L, delta=delta, T=T)
    model = parse_signal(args.signal, sigma=sigma)
    h = config_hash({"cmd": "simulate", **FieldSource(grid, model, sigma, seeds[0]).header,
                     "seed": None})
    token = f"{_signal_token(model)}_d{spacing_token(delta)}"
    paths = [out / f"field_{token}_s{seed}.wfield" for seed in seeds]
    # a cache name records signal, spacing and seed; its header, everything.
    # A source draws its samples when synthesis first reads them, and only
    # one realization's are held at a time.
    for seed, path in zip(seeds, paths):
        if path.exists() and read_header(path) != FieldSource(grid, model, sigma, seed).header:
            raise ConfigError(f"{path} was simulated with other settings; "
                              "write this config to another directory")
    for seed, path in zip(seeds, paths):
        fld = synthesize_field(FieldSource(grid, model, sigma, seed), model, grid)
        out.mkdir(parents=True, exist_ok=True)
        write_field(fld, path)
    print(f"wrote {len(paths)} field cache(s) to {out} (config {h})")
    return 0


def _iter_fields(fields_dir):
    paths = sorted(Path(fields_dir).glob("*.wfield"))
    if not paths:
        raise DataError(f"no .wfield caches in {fields_dir}")
    return paths


def _parse_list(text: str, parse, what: str) -> list:
    try:
        out = [parse(tok) for tok in text.split(",") if tok.strip()]
    except ConfigError:
        raise
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


def _parse_method(token: str) -> Method:
    """A detector by its token, in any case: ``amn``, ``mgn`` or ``st``."""
    try:
        return Method(token.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown method {token.strip()!r}; choose from "
                          + ", ".join(m.value for m in Method)) from None


def _parse_methods(text: str) -> list[Method]:
    return _parse_list(text, _parse_method, "methods")


def _parse_levels(text: str) -> list[int]:
    levels = _parse_list(text, int, "levels")
    if any(j < 0 for j in levels):
        raise ConfigError("subsampling levels must be >= 0")
    return levels


def cmd_detect(args) -> int:
    methods, levels, out, target = args.methods, args.levels, args.out, args.target
    pending = {}  # every CSV to write, checked before the first is written
    for path in _iter_fields(args.fields):
        field = read_field(path)
        W = target if target is not None else field.grid.L - 1.0
        cfg = {"cmd": "detect", "source": path.name,
               "header": json.dumps(read_header(path), sort_keys=True), "target": W,
               "methods": ",".join(m.value for m in methods),
               "levels": ",".join(map(str, levels))}
        h = config_hash(cfg)
        meta = {"config": h, "source": path.name, "T": WINDOW_T,
                "signal": field.source.signal.descriptor(),
                "sigma": float(field.source.sigma)}
        sig = _signal_token(field.source.signal)
        for (_, m), ps in det.detect_ladder(field, W, levels, methods).items():
            seed = "x" if ps.seed is None else ps.seed
            csv_path = out / f"points_{m.value}_{sig}_d{spacing_token(ps.delta)}_s{seed}.csv"
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
    points_dir, sigma, boxes, out = args.points, args.sigma, args.boxes, args.out
    model = parse_signal(args.signal, sigma=sigma)
    # only detect's point sets: reports, this one included, may sit among them
    report = out.resolve()
    paths = sorted(p for p in Path(points_dir).glob("points_*.csv") if p.resolve() != report)
    if not paths:
        raise DataError(f"no point-set CSVs in {points_dir}")
    sets = []
    inputs = {}  # each point set's name -> the config that wrote it
    for p in paths:
        meta: dict[str, str] = {}
        ps = det.read_pointset_csv(p, meta=meta)
        for key, want in (("signal", model.descriptor()), ("sigma", repr(sigma)),
                          ("T", repr(WINDOW_T))):
            if key not in meta:
                raise DataError(f"{p} records no {key}: a point set of an earlier version, "
                                f"which this one does not read; detect its cache again")
            if meta[key] != want:
                raise ConfigError(f"{p} holds detections of {key} {meta[key]!r}, not {want!r}")
        inputs[p.name] = meta.get("config")
        sets.append(ps)
    cfg = {"cmd": "stats", "signal": model.descriptor(), "sigma": sigma,
           "boxes": ",".join(map(str, boxes)), "inputs": json.dumps(inputs, sort_keys=True)}
    h = config_hash(cfg)
    _refuse_replacing(out, h)

    rows = st_mod.summary_rows(sets, model, sigma, boxes)
    out.parent.mkdir(parents=True, exist_ok=True)
    st_mod.write_stats_csv(rows, out, meta={"config": h})
    for r in rows:
        print(f"{r.estimator:22s} delta={r.delta:<10g} box={r.halfwidth:g} "
              f"R={r.R} mean={r.mean:+.5f} std={r.std:.5f} se={r.se:.5f}")
    print(f"wrote {out}")
    return 0


def cmd_consistency(args) -> int:
    fields_dir, methods, levels, proxy, out = (
        args.fields, args.methods, args.levels, args.proxy, args.out)
    if proxy is Method.ST:
        raise ConfigError(f"proxy must be amn or mgn, got {proxy.value!r}")
    if 0 in levels:
        raise ConfigError("consistency levels start at 1 (level 0 is the proxy itself)")
    paths = _iter_fields(fields_dir)
    headers = {p.name: read_header(p) for p in paths}
    _refuse_pooling(fields_dir, headers.values())
    cfg = {"cmd": "consistency", "proxy": proxy.value,
           "methods": ",".join(m.value for m in methods),
           "levels": ",".join(map(str, levels)), "inputs": json.dumps(headers, sort_keys=True)}
    h = config_hash(cfg)
    agg_path = out.with_name(out.stem + "_aggregate" + out.suffix)
    for target in (out, agg_path):
        _refuse_replacing(target, h)

    rows = []
    for path in paths:
        field = read_field(path)
        rows += cons.ladder_rows(field, field.grid.L - 1.0, levels, methods, proxy)
    out.parent.mkdir(parents=True, exist_ok=True)
    cons.write_consistency_csv(rows, out, meta={"config": h})

    deltas, names, table = cons.aggregate_failure_table(rows)
    write_table(agg_path, ["delta", *names],
                ([d, *(table[d, m] for m in names)] for d in deltas),
                meta={"config": h})
    print("failure probability p(delta, method):")
    print("  delta      " + "  ".join(f"{m:>6s}" for m in names))
    for d in deltas:
        cells = "  ".join(f"{table[d, m]:6.3f}" for m in names)
        print(f"  {d:<9g}  {cells}")
    print(f"wrote {out} and {agg_path}")
    return 0


# ---------------------------------------------------------------------------

# Each subcommand: (function, help, settings in the order it reads them).
# A setting is a flag and a config-file key of one name: (parser of the
# flag's or the entry's text, default text or _REQUIRED, help).  The flag
# wins over the entry, which wins over the default; a None default leaves
# an unset setting None.
_REQUIRED = ...
_COMMANDS = {
    "simulate": (cmd_simulate, "draw seeded field realizations into a cache dir", {
        "L": (float, _REQUIRED, "grid half-width"),
        "delta": (parse_spacing, _REQUIRED, "grid spacing, e.g. 2^-6"),
        "T": (float, "6", "window half-length; fixed, only 6 is accepted"),
        "sigma": (float, "1", "noise level"),
        "signal": (str, _REQUIRED, "zero | gauss:A=<a> | hermite1:A=<a>"),
        "seeds": (parse_seeds, _REQUIRED, "e.g. 0..99 or 3,5,8"),
        "out": (Path, _REQUIRED, "cache directory"),
    }),
    "detect": (cmd_detect, "run detectors over a subsampling ladder", {
        "methods": (_parse_methods, "amn,mgn,st", "comma list from amn,mgn,st"),
        "levels": (_parse_levels, "0", "subsampling levels, e.g. 0,1,2"),
        "out": (Path, _REQUIRED, "point-set directory"),
        "fields": (str, _REQUIRED, "directory of .wfield caches"),
        "target": (float, None, "target box halfwidth (default L-1)"),
    }),
    "stats": (cmd_stats, "aggregate estimators over detection CSVs", {
        "points": (str, _REQUIRED, "directory of point-set CSVs"),
        "signal": (str, _REQUIRED, "the signal the point sets record"),
        "sigma": (float, "1", "noise level"),
        "boxes": (lambda text: _parse_list(text, float, "boxes"), "1,2,3",
                  "comma list of box halfwidths"),
        "out": (Path, _REQUIRED, "report CSV"),
    }),
    "consistency": (cmd_consistency, "failure table against the hi-res proxy", {
        "fields": (str, _REQUIRED, "directory of .wfield caches"),
        "methods": (_parse_methods, "amn,mgn,st", "comma list from amn,mgn,st"),
        "levels": (_parse_levels, "1,2,3", "subsampling levels >= 1"),
        "proxy": (_parse_method, "amn", "amn or mgn"),
        "out": (Path, _REQUIRED, "report CSV; the aggregate table goes next to it"),
    }),
}


def _settings(args):
    """Set each of the subcommand's settings on ``args``: its flag, else its
    ``--config`` entry, else its default, through one parser; every key of
    the config file must be one of the settings."""
    settings = _COMMANDS[args.command][2]
    config = read_config_file(args.config) if args.config else {}
    unknown = sorted(config.keys() - settings.keys())
    if unknown:
        raise ConfigError(f"{args.config}: unknown key(s) for {args.command}: "
                          + ", ".join(unknown))
    for key, (parse, default, _) in settings.items():
        val = getattr(args, key)
        if val is None:
            val = config.get(key, default)
        if val is _REQUIRED:
            raise ConfigError(f"missing required setting '{key}'")
        if val is not None:
            try:
                val = parse(val)
            except ValueError as e:  # ConfigError included
                raise ConfigError(f"{key}: {e}") from None
        setattr(args, key, val)
    return args


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bargzeros",
        description="Simulate noisy Bargmann-transform fields, detect their "
                    "zeros, and validate the detected point process.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, about, settings) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=about)
        cmd.add_argument("--config", help="key = value file of these settings; flags override it")
        for key, (_, default, text) in settings.items():
            if default is not None:
                text += " (required)" if default is _REQUIRED else f" (default {default})"
            cmd.add_argument(f"--{key}", help=text)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_settings(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
