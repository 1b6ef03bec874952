"""Command-line surface: estimation runs, Monte Carlo experiments, and
smoothing-sensitivity curves.

All randomness flows from ``--seed`` (default 0, never wall-clock). Exit
codes: 0 success, 2 invalid input, configuration or file (a ``ValueError``
or ``OSError``), 3 estimation failure (a ``StrataBoundsError``). ``main``
alone maps an error to its code; any other exception propagates.
Errors are emitted as a JSON object on stderr; primary results go to
stdout as JSON or CSV only, so runs can be piped. ``STRATA_BOUNDS_LOG``
sets the log level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .data_model import ObservationTable, Stratum, validate, write_csv
from .errors import StrataBoundsError
from .estimation import EstimationConfig, _band_width
from .identification import SupportBounds
from .nuisance import CellSpec, LearnerSpec, crossfit, load_external_nuisances
from .simulation import (METHODS, DgpConfig, PANEL_SHARES, dgp_sample,
                         oracle_nuisances, run_experiment, run_method,
                         write_metrics_csv, write_power_csv)
from .smoothing import GFamily

EXIT_OK, EXIT_INPUT, EXIT_ESTIMATION = 0, 2, 3

#: ``bounds-curve`` flags read only with ``--data`` and only without it,
#: each with the default it takes when unset.
CURVE_FLAGS = ({"folds": 5, "weights_col": None, "nuisance_file": None,
                "nuisance_oracle": False, "cells_discrete": None,
                "cells_bins": 1}, {"panel": "a", "dgp_n": 2000})


def _fail(code: int, kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _setup_logging():
    level = os.environ.get("STRATA_BOUNDS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _keep_freed_heap():
    """Free one 16 MiB block, so that the C allocator keeps the heap it
    frees between replications.

    glibc's malloc hands the top of its heap back to the system whenever
    more than 128 KiB there is free, until freeing one large block raises
    that limit to twice the block's size. Without the raise, a
    50-replication ``simulate`` at n = 2,000 faults about 7,000 pages in
    again and spends about 20 ms of system time doing so (on a shared
    2-vCPU guest). A process that has imported scipy has usually freed
    such a block already. Other allocators ignore this.
    """
    np.empty(16 << 20, dtype=np.uint8)


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _load_config_file(path):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Failure(EXIT_INPUT, "InvalidConfig", str(exc))
    if not isinstance(cfg, dict):
        raise _Failure(EXIT_INPUT, "InvalidConfig", f"a config file holds a "
                       f"JSON object, got {type(cfg).__name__}")
    return cfg


def _resolve(args, file_cfg: dict, defaults: dict) -> dict:
    """CLI flags override config-file values override defaults. A file key
    the command does not read, a null where the default is not null, or no
    list of numbers for ``h``, ``n`` or ``shares`` raises ``_Failure``."""
    for key, val in file_cfg.items():
        if key not in defaults:
            why = (f"is not read by {args.command}; it reads "
                   f"{', '.join(sorted(defaults))}")
        elif val is None and defaults[key] is not None:
            why = "takes a value, got null"
        elif key in ("h", "n", "shares") and val is not None and not (
                isinstance(val, list)
                and all(type(v) in (int, float) for v in val)):
            why = f"takes a list of numbers, got {val!r}"
        else:
            continue
        raise _Failure(EXIT_INPUT, "InvalidConfig", f"config key {key!r} {why}")
    resolved = dict(defaults)
    resolved.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _echo_resolved(resolved: dict):
    sys.stderr.write(json.dumps({"resolved_config": resolved}, sort_keys=True,
                                default=str) + "\n")


class _Failure(Exception):
    """An error already classified: its args are ``_fail``'s (code, kind,
    message). ``main`` reports it."""


#: The errors ``main`` reports; any other exception is a bug and propagates.
CLASSIFIED = (StrataBoundsError, OSError, ValueError)


def _classify(exc, prefix: str = "") -> tuple:
    """``_fail``'s (code, kind, message) for a ``CLASSIFIED`` error."""
    code = EXIT_ESTIMATION if isinstance(exc, StrataBoundsError) else EXIT_INPUT
    return code, type(exc).__name__, prefix + str(exc)


def _load_input(args, seed, folds):
    """Read and validate the CSV at ``args.data`` (``_Failure``, exit 2, if
    it is unreadable or invalid) and build its nuisance bundle (from
    ``--nuisance-file`` or by cross-fitting)."""
    try:
        table = ObservationTable.from_csv(args.data, weights_col=args.weights_col)
    except (OSError, ValueError) as exc:
        raise _Failure(EXIT_INPUT, "InvalidData", str(exc))
    report = validate(table)
    if not report.ok:
        raise _Failure(EXIT_INPUT, "ValidationFailed", "; ".join(report.messages))
    if args.nuisance_file:
        provenance = "external_oracle" if args.nuisance_oracle else "external"
        return table, load_external_nuisances(args.nuisance_file, table,
                                              provenance=provenance)
    cells = CellSpec(discrete_cols=_discrete_cols(args.cells_discrete, table.p),
                     n_bins=args.cells_bins)
    spec = LearnerSpec(cells=cells, folds=int(folds), seed=int(seed))
    return table, crossfit(table, spec)


def _discrete_cols(text, p: int) -> tuple:
    """The 0-based columns of a ``--cells-discrete`` list of covariate
    numbers, each in 1..p; ``_Failure`` (exit 2) for any other entry."""
    cols = []
    for c in (text or "").split(","):
        if c.strip() == "":
            continue
        if not c.strip().isdecimal() or not 1 <= int(c) <= p:
            raise _Failure(EXIT_INPUT, "InvalidConfig",
                           f"--cells-discrete takes covariate numbers in "
                           f"1..{p}, got {c.strip()!r}")
        cols.append(int(c) - 1)
    return tuple(cols)


# ---------------------------------------------------------------------------
# estimate

def cmd_estimate(args) -> int:
    file_cfg = _load_config_file(args.config)
    defaults = {"method": "sharp", "stratum": "at", "side": "both",
                "h": [0.05], "rho": "auto", "folds": 5, "alpha": 0.05,
                "seed": 0, "eps_trim": None, "trim_variant": "drop",
                "dominance": False}
    resolved = _resolve(args, file_cfg, defaults)
    _echo_resolved(resolved)
    methods = [m.strip() for m in str(resolved["method"]).split(",")]
    for method in methods:
        if method not in METHODS:
            return _fail(EXIT_INPUT, "UnknownMethod", method)
    # a knob set explicitly (flag or config file) that no listed method
    # reads would change nothing
    for method, knobs in METHODS.items():
        if method in methods:
            continue
        for knob in knobs:
            if getattr(args, knob) is not None or file_cfg.get(knob) is not None:
                return _fail(EXIT_INPUT, "InvalidConfig",
                             f"{knob} is only used by method {method}")
    # never-taker bounds are support constants with no moment rows, and the
    # smoothed moments have no dominance variant: there it changes nothing
    if resolved["dominance"] and str(resolved["stratum"]).lower() == "nt":
        return _fail(EXIT_INPUT, "InvalidConfig",
                     "dominance is not used by the never-taker stratum")
    if resolved["dominance"] and all(m == "smooth" for m in methods):
        return _fail(EXIT_INPUT, "InvalidConfig",
                     "dominance is not used by method smooth")
    group = None   # index of the --group-col covariate
    if args.group_col is not None:
        k = args.group_col[1:]
        if args.group_col[:1] != "x" or not k.isdecimal() or int(k) < 1:
            return _fail(EXIT_INPUT, "InvalidConfig",
                         "group column must be named x1..xp")
        group = int(k) - 1
    # a bad knob value fails before the nuisances are fitted
    cfg = EstimationConfig(stratum=Stratum.parse(resolved["stratum"]),
                           alpha=float(resolved["alpha"]),
                           dominance=bool(resolved["dominance"]))
    for h in resolved["h"]:
        GFamily(h=float(h))
    for knob in ("rho", "eps_trim"):
        if resolved[knob] not in (None, "auto"):
            _band_width(knob, resolved[knob])
    table, bundle = _load_input(args, resolved["seed"], resolved["folds"])
    if group is not None and group >= table.p:
        return _fail(EXIT_INPUT, "InvalidConfig",
                     f"group column must be one of x1..x{table.p}")

    def records(table, bundle):
        """Every listed method's records (smooth's once per h) on one (table,
        bundle) pair. A group reads the full sample's support limits too."""
        out = []
        for method in methods:
            knobs = {arg: resolved[knob] for knob, arg in METHODS[method].items()}
            grid = [{"h": h} for h in knobs["h"]] if "h" in knobs else [knobs]
            out += [run_method(method, table, bundle, cfg, support, **kw).to_dict()
                    for kw in grid]
        return out

    support = SupportBounds.from_table(table)
    payload = records(table, bundle)
    column = () if group is None else table.x[:, group]
    for g in np.unique(column):
        rows = column == g
        try:
            payload += [dict(rec, group=float(g)) for rec in
                        records(table.select(rows), bundle.select(rows))]
        except CLASSIFIED as exc:
            raise _Failure(*_classify(exc, f"group x{group + 1}={float(g)}: "))

    hidden = {"l": "upper", "u": "lower"}.get(str(resolved["side"]).lower())
    for rec in payload if hidden else ():
        rec[f"estimate_{hidden}"] = rec[f"se_{hidden}"] = None
    # ``_estimate`` lets no non-finite bound, SE or interval end through
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write("\n")
    _human_table(payload)
    return EXIT_OK


def _human_table(payload):
    cols = ("method", "estimate_lower", "estimate_upper", "se_lower",
            "se_upper", "h")
    lines = ["  ".join(f"{c:>15}" for c in cols)]
    for rec in payload:
        cells = []
        for c in cols:
            v = rec.get(c)
            cells.append(f"{v:>15.6g}" if isinstance(v, float) else f"{str(v):>15}")
        lines.append("  ".join(cells))
    sys.stderr.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    file_cfg = _load_config_file(args.config)
    defaults = {"panel": "a", "n": [400, 2000], "reps": 2000, "seed": 0,
                "gamma": 1.0, "alpha": 0.05, "h": [0.05, 0.01, 1e-9],
                "threads": 1, "out": "metrics.csv", "power_out": "power.csv",
                "shares": None, "power_points": 21}
    resolved = _resolve(args, file_cfg, defaults)
    _echo_resolved(resolved)
    panel = str(resolved["panel"]).lower()
    if resolved["shares"] is not None:
        shares = tuple(float(v) for v in resolved["shares"])
        label = panel if args.panel or "panel" in file_cfg else "custom"
    elif panel in PANEL_SHARES:
        shares, label = PANEL_SHARES[panel], panel
    else:
        return _fail(EXIT_INPUT, "UnknownPanel", panel)
    # every n's configuration is checked before the first experiment runs
    configs = [DgpConfig(n=int(n), shares=shares, gamma=float(resolved["gamma"]),
                         base_seed=int(resolved["seed"]),
                         replications=int(resolved["reps"]),
                         alpha=float(resolved["alpha"]),
                         h_grid=tuple(resolved["h"]),
                         power_points=int(resolved["power_points"]),
                         label=label) for n in resolved["n"]]
    # so is each output path: opening it raises the OSError a write would,
    # and the file is left as it was
    for path in (resolved["out"], resolved["power_out"]):
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)
    results = [run_experiment(config, threads=int(resolved["threads"]))
               for config in configs]
    write_metrics_csv(results, resolved["out"])
    write_power_csv(results, resolved["power_out"])
    sys.stdout.write(f"wrote {resolved['out']} and {resolved['power_out']}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds-curve

def cmd_bounds_curve(args) -> int:
    if not args.h:
        return _fail(EXIT_INPUT, "EmptyGrid", "provide at least one h")
    families = [GFamily(h=float(h)) for h in args.h]
    cfg = EstimationConfig(alpha=args.alpha)
    own, other = CURVE_FLAGS if args.data else CURVE_FLAGS[::-1]
    for key in other:
        if getattr(args, key) is not None:
            return _fail(EXIT_INPUT, "InvalidConfig",
                         f"--{key.replace('_', '-')} is only used "
                         f"{'without' if args.data else 'with'} --data")
    for key, default in own.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    seed = args.seed or 0
    if args.data:
        table, bundle = _load_input(args, seed, args.folds)
    else:
        config = DgpConfig(n=args.dgp_n, shares=PANEL_SHARES[args.panel],
                           base_seed=seed, replications=1)
        table = dgp_sample(config, 0)
        bundle = oracle_nuisances(config)(table)

    rows = []
    for family in families:
        try:
            est = run_method("smooth", table, bundle, cfg, None, h=family.h)
            rows.append([family.h, est.lower, est.upper, *est.ci_effect, ""])
        except StrataBoundsError as exc:
            rows.append([family.h, "", "", "", "", type(exc).__name__])
    write_csv(sys.stdout, ["h", "lower", "upper", "ci_effect_lo",
                           "ci_effect_hi", "error"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="strata-bounds",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="bound estimates from a CSV sample")
    est.add_argument("data", help="input CSV (y,s,d,weight,x1..xp)")
    est.add_argument("--config", help="JSON config file")
    est.add_argument("--method", help="comma list of " + "|".join(METHODS))
    est.add_argument("--stratum", choices=["at", "c", "def", "nt", "em"])
    est.add_argument("--side", choices=["l", "u", "both"])
    est.add_argument("--h", type=_float_list, help="comma list of h values")
    est.add_argument("--rho", help="'auto' or a numeric switch threshold")
    est.add_argument("--eps-trim", dest="eps_trim", type=float)
    est.add_argument("--trim-variant", choices=["drop", "retain"])
    est.add_argument("--folds", type=int)
    est.add_argument("--alpha", type=float)
    est.add_argument("--seed", type=int)
    est.add_argument("--weights-col",
                     help="weights column (default: 'weight' if present)")
    est.add_argument("--nuisance-file", help="external per-row nuisance CSV")
    est.add_argument("--nuisance-oracle", action="store_true",
                     help="treat the external nuisances as exact")
    est.add_argument("--dominance", action="store_true", default=None)
    est.add_argument("--group-col", help="covariate column for subgroup bounds")
    est.add_argument("--cells-discrete",
                     help="comma list of covariate indices treated as discrete")
    est.add_argument("--cells-bins", type=int, default=1)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte Carlo benchmark tables")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--panel", choices=list(PANEL_SHARES))
    sim.add_argument("--n", type=lambda s: [int(v) for v in s.split(",")])
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--h", type=_float_list)
    sim.add_argument("--threads", type=int)
    sim.add_argument("--out")
    sim.add_argument("--power-out", dest="power_out")
    sim.set_defaults(func=cmd_simulate)

    curve = sub.add_parser("bounds-curve",
                           help="smoothed bounds across an h grid")
    curve.add_argument("--data", help="input CSV; omit to use the benchmark DGP")
    curve.add_argument("--panel", choices=list(PANEL_SHARES))
    curve.add_argument("--dgp-n", type=int)
    curve.add_argument("--h", type=_float_list, required=True)
    curve.add_argument("--alpha", type=float, default=0.05)
    curve.add_argument("--seed", type=int)
    curve.add_argument("--folds", type=int)
    curve.add_argument("--weights-col")
    curve.add_argument("--nuisance-file")
    curve.add_argument("--nuisance-oracle", action="store_true", default=None)
    curve.add_argument("--cells-discrete")
    curve.add_argument("--cells-bins", type=int)
    curve.set_defaults(func=cmd_bounds_curve)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        return _fail(*exc.args)
    except CLASSIFIED as exc:
        return _fail(*_classify(exc))


if __name__ == "__main__":
    sys.exit(main())
