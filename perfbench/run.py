"""End-to-end and per-layer benchmark of the strata-bounds command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload crossfit-estimate --seed 1 \
        --seconds 20 --trace 0

One process drives ``strata_bounds.cli.main`` in-process with one
closed-loop caller: the next op starts when the previous one has finished
and its output has been checked. Inputs are generated from ``--seed``
before each op, outside the timed region. ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer table. ``--smoke`` runs
the same code at small sizes. The last line of standard output is the
result object; the line before it is the run record (environment, sample
counts, output digests), also written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Ops 0..MIN_OPS always run whatever --seconds says; op 0 warms up untimed.
# The run digest covers exactly these ops, so it does not depend on speed.
MIN_OPS = 4

FULL = {"n": 2000, "reps": 50, "levels": 49, "setup_reps": 3}
SMOKE = {"n": 2000, "reps": 2, "levels": 9, "setup_reps": 2}

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import strata_bounds, strata_bounds.cli
t = time.perf_counter() - t
if not strata_bounds.__file__.startswith(sys.argv[1]):
    raise SystemExit("imported strata_bounds from " + strata_bounds.__file__)
print(repr(t))
"""


class OpFailed(Exception):
    pass


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# input files (written by the benchmark, not by the package under test)

def write_table(table, path) -> None:
    """Observation CSV in the ``estimate`` input format (y,s,d,weight,x1..)."""
    head = ["y", "s", "d", "weight"] + [f"x{j + 1}" for j in range(table.p)]
    lines = [",".join(head)]
    for i in range(table.n):
        y = repr(float(table.y[i])) if table.s[i] == 1 else ""
        lines.append(",".join([y, str(int(table.s[i])), str(int(table.d[i])),
                               repr(float(table.weight[i]))]
                              + [repr(float(v)) for v in table.x[i]]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_oracle_grid(bundle, levels, path) -> None:
    """Per-row nuisance CSV: m,s0,s1 plus q_<d>_u<level> and
    b_<j>_<d>_u<level> grids evaluated from an oracle bundle."""
    rows = bundle.all_rows()
    names = ["m", "s0", "s1"]
    cols = [bundle.m, bundle.s0, bundle.s1]
    for u in levels:
        uu = np.full(len(rows), u)
        for d in (0, 1):
            names.append(f"q_{d}_u{float(u)!r}")
            cols.append(bundle.quantile(rows, d, uu))
        for j in (0, 1):
            for d in (0, 1):
                names.append(f"b_{j}_{d}_u{float(u)!r}")
                cols.append(bundle.trunc_mean(rows, j, d, uu))
    data = np.column_stack(cols)
    if not np.isfinite(data).all():
        raise RuntimeError("oracle grid has non-finite entries")
    lines = [",".join(names)]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks

def check_estimates(stdout: str, expected: int) -> None:
    """Every bound finite, lower <= upper, both intervals cover the bounds."""
    records = json.loads(stdout)
    if len(records) != expected:
        raise OpFailed(f"{len(records)} estimates, expected {expected}")
    for rec in records:
        lo, hi = rec["estimate_lower"], rec["estimate_upper"]
        if lo is None or hi is None or not (math.isfinite(lo)
                                             and math.isfinite(hi)):
            raise OpFailed(f"{rec['method']}: non-finite bound")
        if not lo <= hi:
            raise OpFailed(f"{rec['method']}: lower {lo!r} > upper {hi!r}")
        for key in ("ci_set", "ci_effect"):
            a, b = rec[key]
            if a is None or b is None or not (a <= lo and hi <= b):
                raise OpFailed(f"{rec['method']}: {key} {a!r},{b!r} "
                               f"does not cover [{lo!r}, {hi!r}]")


def check_metrics_csv(path, reps: int, methods: int) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len({r["method"] for r in rows}) != methods or len(rows) != methods:
        raise OpFailed(f"metrics.csv has {len(rows)} rows, expected {methods}")
    for r in rows:
        if int(r["reps"]) + int(r["failures"]) != reps:
            raise OpFailed(f"{r['method']}: reps {r['reps']} + failures "
                           f"{r['failures']} != {reps}")


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One input family. ``prepare`` runs once in set-up; ``op_input(i)``
    writes op i's inputs and returns its CLI arguments; ``check`` validates
    the op's output and returns its digest."""

    name = ""

    def __init__(self, pkg, size: dict, seed: int, work: Path):
        self.pkg, self.size, self.seed, self.work = pkg, size, seed, work

    def prepare(self) -> None:
        pass

    def rows_per_op(self) -> int:
        return self.size["n"]

    def reps_per_op(self) -> int:
        return 1


class CrossfitEstimate(Workload):
    name = "crossfit-estimate"
    METHODS = 5  # sharp, trim, switch, smooth at two bandwidths

    def op_input(self, i):
        sim = self.pkg.simulation
        config = sim.DgpConfig(n=self.size["n"], shares=sim.PANEL_SHARES["b"],
                               base_seed=self.seed, replications=1)
        path = self.work / f"data-{i}.csv"
        write_table(sim.dgp_sample(config, i), path)
        return ["estimate", str(path), "--method", "sharp,trim,switch,smooth",
                "--h", "0.05,0.01", "--cells-discrete", "1",
                "--cells-bins", "3", "--folds", "5", "--seed", "1"]

    def check(self, stdout, i):
        (self.work / f"data-{i}.csv").unlink()
        check_estimates(stdout, self.METHODS)
        return _sha(stdout.encode())


class ExternalGrid(Workload):
    name = "external-grid"
    METHODS = 4  # sharp, switch, smooth, inefficient

    def prepare(self):
        sim = self.pkg.simulation
        config = sim.DgpConfig(n=self.size["n"], shares=sim.PANEL_SHARES["a"],
                               base_seed=self.seed, replications=1)
        table = sim.dgp_sample(config, 0)
        self.data = self.work / "data.csv"
        self.grid = self.work / "grid.csv"
        write_table(table, self.data)
        write_oracle_grid(sim.oracle_nuisances(config)(table),
                          np.linspace(0.0, 1.0, self.size["levels"]), self.grid)

    def op_input(self, i):
        return ["estimate", str(self.data), "--method",
                "sharp,switch,smooth,inefficient", "--h", "0.05",
                "--nuisance-file", str(self.grid), "--nuisance-oracle"]

    def check(self, stdout, i):
        check_estimates(stdout, self.METHODS)
        return _sha(stdout.encode())


class McOracle(Workload):
    name = "mc-oracle"
    METHODS = 7  # the paper roster with three bandwidths

    def rows_per_op(self):
        return self.size["n"] * self.size["reps"]

    def reps_per_op(self):
        return self.size["reps"]

    def op_input(self, i):
        self.metrics = self.work / f"metrics-{i}.csv"
        self.power = self.work / f"power-{i}.csv"
        return ["simulate", "--panel", "b", "--n", str(self.size["n"]),
                "--reps", str(self.size["reps"]),
                "--seed", str(self.seed * 1000 + i), "--threads", "1",
                "--out", str(self.metrics), "--power-out", str(self.power)]

    def check(self, stdout, i):
        check_metrics_csv(self.metrics, self.size["reps"], self.METHODS)
        digest = _sha(self.metrics.read_bytes() + self.power.read_bytes())
        self.metrics.unlink()
        self.power.unlink()
        return digest


WORKLOADS = {w.name: w for w in (CrossfitEstimate, McOracle, ExternalGrid)}


# ---------------------------------------------------------------------------
# measurement

def measure_setup(reps: int) -> list:
    """Import time of the package and its CLI in fresh interpreters. Call
    after this process has imported the package, so bytecode is cached."""
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_op(pkg, argv, tracer=None, op_id=None):
    """One CLI call; returns (seconds, exit code, stdout, error)."""
    main = pkg.cli.main
    out = io.StringIO()
    err = None
    code = None
    if tracer is not None:
        tracer.op = op_id
        tracer.install(pkg)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    code = tracer.call("cli.self", main, (argv,), {})
                else:
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op
                err = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, code, out.getvalue(), err


def percentile(values, q):
    return float(np.percentile(values, q))


def environment(pkg, trace: bool) -> dict:
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "strata_bounds").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "strata_bounds": pkg.__version__,
            "git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "trace": trace}


def git_commit():
    """HEAD commit read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
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


def import_package():
    """The package under ``src/``, with its submodules as attributes."""
    sys.path.insert(0, str(SRC))
    import strata_bounds
    import strata_bounds.cli
    if not Path(strata_bounds.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"strata_bounds imported from "
                           f"{strata_bounds.__file__}, not from {SRC}")
    return strata_bounds


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    size = SMOKE if args.smoke else FULL
    pkg = import_package()
    setup_times = [] if args.trace else measure_setup(size["setup_reps"])
    from tracing import Tracer
    tracer = Tracer() if args.trace else None

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    times = {False: [], True: []}
    rows = reps = 0
    attempted = failed = 0
    digests = []
    errors = []
    try:
        workload = WORKLOADS[args.workload](pkg, size, args.seed, work)
        workload.prepare()
        with open(work / "stderr.log", "w+", encoding="utf-8") as log, \
                contextlib.redirect_stderr(log):
            start = None
            i = 0
            while i <= MIN_OPS or time.perf_counter() - start < args.seconds:
                argv = workload.op_input(i)
                log_pos = log.tell()
                gc.collect()  # every op starts from the same heap state
                traced = bool(args.trace) and i % 2 == 0 and i > 0
                seconds, code, stdout, err = run_op(
                    pkg, argv, tracer if traced else None, i)
                attempted += 1
                digest = None
                try:
                    if err is not None:
                        raise OpFailed(err)
                    if code != 0:
                        log.seek(log_pos)
                        said = log.read().strip().splitlines()
                        log.seek(0, os.SEEK_END)
                        raise OpFailed(f"exit code {code}: "
                                       + (said[-1] if said else ""))
                    digest = workload.check(stdout, i)
                    if i > 0:
                        rows += workload.rows_per_op()
                        reps += workload.reps_per_op()
                except (OpFailed, ValueError, KeyError, OSError) as exc:
                    failed += 1
                    errors.append(f"op {i}: {exc}")
                if i <= MIN_OPS:
                    digests.append(digest)
                if i == 0:
                    start = time.perf_counter()
                else:
                    times[traced].append(seconds)
                i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = times[False]
    busy = sum(plain) + sum(times[True])
    values = {
        "op_s.p50": percentile(plain, 50),
        "op_s.p90": percentile(plain, 90),
        "rows_per_s": rows / busy,
        "reps_per_s": reps / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    layers = {}
    if tracer is not None:
        layers = tracer.per_op_table(len(times[True]))
        values.update(layers)
        values["trace.overhead_s"] = (percentile(times[True], 50)
                                      - values["op_s.p50"])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "size": size, "loop": "closed, 1 caller",
        "env": environment(pkg, bool(args.trace)),
        "samples": {"untraced_ops": len(plain), "traced_ops": len(times[True]),
                    "setup": len(setup_times)},
        "op_s": plain, "op_s_traced": times[True], "setup_s": setup_times,
        "error_rate": values["error_rate"], "errors": errors,
        "layers": layers, "op_digests": digests,
        "digest": _sha("\n".join(map(str, digests)).encode()),
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
            + ("-smoke" if args.smoke else ""))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':32s} {values['error_rate']:14.6g} 1")
    for name, value in layers.items():
        if name not in metrics:
            unit = "s" if name.endswith(".s") else "count"
            print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strata_bounds" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
