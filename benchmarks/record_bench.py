#!/usr/bin/env python3
"""Record ``perfbench/run.py`` results of one or more checkouts in a file.

For every workload and seed, runs ``perfbench/run.py`` of each named
checkout once (the order of the checkouts alternates from seed to seed, so
no side always runs first) and writes ``BENCH_<label>.json`` in the
current directory: one record per run with the side's name, the workload,
the seed, the run's ``meta`` line (git revision, machine, backend), the
peak RSS and wall time of each pass, and the run's final JSON line.

Run:  python benchmarks/record_bench.py --label det_kernel \\
          --side parent=../parent-checkout --side change=. \\
          --workloads determinants critical --seeds 1 2 3 \\
          --layers linalg.det.self_s linalg.self_s

Each checkout runs its own ``perfbench/run.py`` on its own ``src``, untraced,
for the run length that ``BENCHMARK.json`` sets.  With ``--layers``, each
side also runs ``perfbench/run.py --trace 1`` once per workload and seed,
after its untraced run; that record has ``"trace": 1`` and carries the
per-layer metrics, of which the named ones are summarized.  An existing
``BENCH_<label>.json`` is extended, not replaced.  After the runs, one line
per workload and side gives the median over seeds of each gated end-to-end
metric, with that side's interquartile range over seeds, the passes per
run (median, min-max) and the median peak RSS of the first pass, the number
of seeds on which that side had the lowest wall_s, and the number of its
runs that were not correct or had a failed operation; with ``--layers``, a
second line gives the median over seeds of each named per-layer metric of
the traced runs, with its interquartile range.  Two sides whose medians
differ by less than their interquartile ranges are not told apart.  The
script exits 1 when any run was not correct or had a failed operation, since
its timings do not time the work.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RSS = re.compile(r"\s(\d+\.\d+) s\s+cpu .* rss\s+(\d+\.\d+) MiB")

#: the end-to-end metrics that BENCHMARK.json gates
GATED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines
                if line.startswith("meta "))
    passes = []
    for line in lines:
        if line.startswith("traced pass"):  # timed with the spans: not a pass
            break
        if line.startswith("pass "):
            passes.append({"wall_s": 0.0, "peak_rss_mb": 0.0})
        elif passes and (hit := RSS.search(line)):
            passes[-1]["wall_s"] += float(hit.group(1))
            passes[-1]["peak_rss_mb"] = max(passes[-1]["peak_rss_mb"],
                                            float(hit.group(2)))
    return {"meta": meta, "passes": passes, "result": json.loads(lines[-1])}


def metric(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def median_iqr(values: list[float]) -> str:
    """The median and the interquartile range, as ``median (IQR x)``."""
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else (values[0], values[0]))
    return f"{statistics.median(values):.3f} (IQR {q3 - q1:.3f})"


def pass_counts(runs: list[dict]) -> str:
    """The passes per run, as ``median (min-max)``, and the median peak RSS
    of the first pass.  A run's peak_rss_mb counts its passes, since the
    harness keeps every report until the run ends, so two sides compare
    fairly on it only when they made as many passes."""
    counts = [len(run["passes"]) for run in runs]
    first = [run["passes"][0]["peak_rss_mb"] for run in runs if run["passes"]]
    rss = f"{statistics.median(first):.2f} MiB" if first else "n/a"
    return (f"passes {statistics.median(counts):g} "
            f"({min(counts)}-{max(counts)})  first-pass peak_rss_mb {rss}")


def summarize(runs: list[dict], sides: list[str],
              layers: tuple[str, ...] = ()) -> int:
    """Print, per workload and side, the median over seeds of each gated
    metric with its interquartile range, the passes per run and the first
    pass's peak RSS (``pass_counts``), the number of seeds on which the side
    had the lowest wall_s, and the number of runs that were not correct or
    had a failed operation; then, for the traced runs, the median over seeds
    of each of the per-layer metrics ``layers``.  Return the number of runs,
    traced or not, that were not correct or had a failed operation."""
    bad_runs = 0
    for workload in dict.fromkeys(run["workload"] for run in runs):
        ours = [run for run in runs
                if run["workload"] == workload and not run.get("trace")]
        traced = [run for run in runs
                  if run["workload"] == workload and run.get("trace")]
        walls: dict[int, dict[str, float]] = {}
        for run in ours:
            walls.setdefault(run["seed"], {})[run["side"]] = metric(run,
                                                                    "wall_s")
        for side in sides:
            mine = [run for run in ours if run["side"] == side]
            medians = "  ".join(
                f"{name} {median_iqr([metric(r, name) for r in mine])}"
                for name in GATED)
            wins = sum(min(by_side, key=by_side.get) == side
                       for by_side in walls.values())
            bad = sum(not r["result"]["correct"] or r["result"]["failed"] > 0
                      for r in mine)
            bad_runs += bad
            print(f"{side:10s} {workload:14s} median of {len(mine)} seeds: "
                  f"{medians}  {pass_counts(mine)}  "
                  f"lower wall_s on {wins} of {len(walls)}  "
                  f"{bad} runs not correct or with failures")
            mine = [run for run in traced if run["side"] == side]
            if not (layers and mine):
                continue
            medians = "  ".join(
                f"{name} {median_iqr([metric(r, name) for r in mine])}"
                for name in layers)
            bad = sum(not r["result"]["correct"] or r["result"]["failed"] > 0
                      for r in mine)
            bad_runs += bad
            print(f"{side:10s} {workload:14s} traced, median of {len(mine)} "
                  f"seeds: {medians}  {bad} runs not correct or with "
                  "failures")
    return bad_runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=CHECKOUT",
                        help="a named checkout to run; repeat for each side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--layers", nargs="+", default=[], metavar="NAME",
                        help="per-layer metrics to record from one traced "
                        "run per side, workload and seed")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = []
    for item in args.side:
        name, sep, path = item.partition("=")
        if not sep:
            parser.error(f"--side {item!r} is not NAME=CHECKOUT")
        sides.append((name, Path(path).resolve()))
    out = Path(f"BENCH_{args.label}.json")
    doc = (json.loads(out.read_text()) if out.exists()
           else {"label": args.label, "runs": []})
    runs = []
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            turn = k % len(sides)
            for name, checkout in sides[turn:] + sides[:turn]:
                for trace in (0, 1) if args.layers else (0,):
                    run = {"side": name, "workload": workload, "seed": seed,
                           "seconds": seconds, "trace": trace,
                           **run_once(checkout, workload, seed, seconds,
                                      trace)}
                    missing = set(args.layers if trace else ()) - set(
                        run["result"]["metrics"])
                    if missing:
                        raise SystemExit(f"no per-layer metrics {missing}")
                    runs.append(run)
                    doc["runs"].append(run)
                    shown = args.layers[0] if trace else "wall_s"
                    print(f"{name:10s} {workload:14s} seed {seed}: "
                          f"{shown} {metric(run, shown):.2f}", flush=True)
                    out.write_text(json.dumps(doc, indent=2, sort_keys=True)
                                   + "\n")
    return 1 if summarize(runs, [name for name, _ in sides],
                          tuple(args.layers)) else 0


if __name__ == "__main__":
    sys.exit(main())
