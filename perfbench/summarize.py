"""Summarize benchmark runs: medians, quartile spreads and output digests.

    python3 perfbench/summarize.py [RESULTS_DIR [OTHER_RESULTS_DIR]] \
        [--baseline FILE]

RESULTS_DIR defaults to ``.perfbench/results``. With one directory, prints
per workload and metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound. With a second directory
(for example the same runs on a changed commit), also prints the change
of each median against its bound and whether each seed's output digest is
identical. ``--baseline`` writes the one-directory summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> {seed: record}."""
    runs = defaultdict(dict)
    for path in sorted(directory.glob("*-trace[01].json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs[(rec["workload"], int(rec["env"]["trace"]))][rec["seed"]] = rec
    return runs


def stats(values) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def summarize(runs: dict, spec: dict) -> dict:
    out = {}
    for (workload, trace), by_seed in sorted(runs.items()):
        kind = "per_layer" if trace else "end_to_end"
        entry = out.setdefault(workload, {})
        table = {}
        for m in spec[kind]:
            vals = [r["metrics"][m["name"]]["value"] for r in by_seed.values()]
            table[m["name"]] = dict(stats(vals), unit=m["unit"])
        # the traced record also holds the layers not every workload runs
        for name in next(iter(by_seed.values())).get("layers", {}):
            if name not in table:
                vals = [r["layers"][name] for r in by_seed.values()]
                unit = "s" if name.endswith(".s") else "count"
                table[name] = dict(stats(vals), unit=unit)
        entry[kind] = table
        if not trace:
            entry["digests"] = {str(s): r["digest"]
                                for s, r in sorted(by_seed.items())}
            entry["env"] = next(iter(by_seed.values()))["env"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path,
                        default=[ROOT / ".perfbench" / "results"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first = summarize(load(args.dirs[0]), spec)
    second = summarize(load(args.dirs[1]), spec) if len(args.dirs) > 1 else {}

    for workload, entry in first.items():
        for kind in ("end_to_end", "per_layer"):
            for name, s in entry.get(kind, {}).items():
                line = (f"{workload:18s} {name:32s} n={s['runs']:<3d} "
                        f"median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                        f"q3={s['q3']:<12.6g}")
                if kind == "end_to_end":
                    bound = bounds[name]["bound"]
                    line += f" spread={s['spread']:.4f} bound={bound}"
                    other = second.get(workload, {}).get(kind, {}).get(name)
                    if other:
                        change = other["median"] / s["median"] - 1.0
                        worse = (change > bound if bounds[name]["better"]
                                 == "lower" else -change > bound)
                        line += (f" change={change:+.4f}"
                                 f"{' WORSE' if worse else ''}")
                print(line)
        if workload in second:
            mine, theirs = entry.get("digests", {}), second[workload].get(
                "digests", {})
            common = sorted(set(mine) & set(theirs))
            same = sum(mine[s] == theirs[s] for s in common)
            print(f"{workload:18s} digests identical on {same}/{len(common)} "
                  f"common seeds")
    if args.baseline:
        args.baseline.write_text(json.dumps(first, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
