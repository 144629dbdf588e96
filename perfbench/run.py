"""Benchmark of the ``tl2b`` command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 10 --trace 0

A single closed-loop client runs the workload's ``tl2b`` invocations one at a
time, each in a fresh process, and repeats the whole list until ``--seconds``
have passed (at least once).  The seed selects the ``tl2b --seed`` of every
invocation (``workloads.point_seed``).  Every report is checked.  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the list is run once untraced and once traced, and the result carries the
per-layer metrics.  The last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from client import (ROOT, Outcome, check_report, child_env, load_digests,
                    run_process)
from tracer import summarize
from workloads import (REQUIRED_CALLS, TIMED_COMMANDS, WORKLOADS, argv,
                       label, point_seed)

HERE = Path(__file__).resolve().parent

#: fresh interpreters importing the CLI per run; the median is setup_s
SETUP_SAMPLES = 15

AUDIT_FAMILIES = ("bulk", "comm", "left", "right", "quotient", "hecke",
                  "murphy", "equiv", "centre", "iji", "ybe", "spin", "b1",
                  "en", "gram", "irreps", "modules")

#: end-to-end metrics gated on every workload (never zero); the per-command
#: times and failed_share are printed as well and reported with --trace 1
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

PROBE = ("import sys, tl2b._ratback as r\n"
         "try:\n import numpy; v = numpy.__version__\n"
         "except ImportError:\n v = 'absent'\n"
         "print(r.BACKEND, v, sys.version.split()[0])")


class Invocation:
    """One finished invocation and the verdict of its report check."""

    def __init__(self, inv: tuple[str, ...], outcome: Outcome,
                 problem: str | None, wrong: bool):
        self.label = label(inv)
        self.command = inv[0]
        self.outcome = outcome
        self.problem = problem
        self.wrong = wrong


def run_list(workload: str, seed: int, backend: str, digests: dict,
             env: dict, spans_dir: str | None = None) -> list[Invocation]:
    """Run the workload's invocations in order; traced when spans_dir is set."""
    done = []
    for k, inv in enumerate(WORKLOADS[workload]):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "tl2b.cli", *argv(inv, seed)]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   os.path.join(spans_dir, f"{k}.json"), f"{workload}.{k}",
                   "--", *argv(inv, seed)]
        out = run_process(cmd, env)
        problem, wrong = check_report(label(inv), seed, backend, out, digests)
        done.append(Invocation(inv, out, problem, wrong))
        print(f"  {label(inv):32s} {out.wall_s:8.3f} s  cpu {out.cpu_s:8.3f} s"
              f"  rss {out.peak_rss_mb:6.1f} MiB  "
              + ("pass" if problem is None else f"FAIL: {problem}"),
              flush=True)
    return done


def end_to_end(done: list[Invocation]) -> dict[str, float]:
    out = {"wall_s": sum(i.outcome.wall_s for i in done),
           "cpu_s": sum(i.outcome.cpu_s for i in done),
           "peak_rss_mb": max(i.outcome.peak_rss_mb for i in done)}
    for command in TIMED_COMMANDS:
        times = [i.outcome.wall_s for i in done if i.command == command]
        if times:
            out[f"{command}_s"] = sum(times)
    out["failed_share"] = sum(i.problem is not None for i in done) / len(done)
    return out


def measure_setup(env: dict) -> float:
    cmd = [sys.executable, "-c", "import tl2b.cli"]
    run_process(cmd, env)  # writes the bytecode cache; not timed
    return statistics.median(run_process(cmd, env).wall_s
                             for _ in range(SETUP_SAMPLES))


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: recorded to show machine drift
    between sets of runs, never used to rescale a metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_layer(plain: list[Invocation], traced: list[Invocation],
              spans: list[list]) -> tuple[dict[str, float], set[str]]:
    """The per-layer metrics, and the layers and span names they read."""
    stats = summarize(spans)
    zero = [0, 0.0, 0.0, []]
    read: set[str] = set()
    m: dict[str, float] = {}

    def get(name: str) -> list:
        read.add(name)
        return stats.get(name, zero)

    def span_metrics(name: str, *kinds: str) -> None:
        calls, self_s, total_s, _ = get(name)
        for kind in kinds:
            m[f"{name}.{kind}"] = {"calls": calls, "self_s": self_s,
                                   "total_s": total_s}[kind]

    def layer_self(layer: str) -> float:
        read.add(layer)
        return sum(v[1] for k, v in stats.items()
                   if k.startswith(layer + "."))

    def repeat_ratio(name: str) -> float:
        keys_by_inv: dict[str, set] = {}
        for span in spans:
            if span[0] == name:
                keys_by_inv.setdefault(span[6], set()).add(span[5])
        distinct = sum(len(keys) for keys in keys_by_inv.values())
        return get(name)[0] / distinct if distinct else 0.0

    # linalg
    span_metrics("linalg.matmul", "calls", "self_s")
    counts = get("linalg.matmul")[3]
    visited = sum(c[0] for c in counts)
    mults = sum(c[1] for c in counts)
    m["linalg.matmul.visited"] = visited
    m["linalg.matmul.mults"] = mults
    m["linalg.matmul.useful_ratio"] = mults / visited if visited else 0.0
    m["linalg.matmul.max_bits"] = max((c[2] for c in counts), default=0)
    span_metrics("linalg.det", "calls", "self_s")
    counts = get("linalg.det")[3]
    m["linalg.det.max_rows"] = max((c[0] for c in counts), default=0)
    m["linalg.det.zero_share"] = (sum(c[1] for c in counts) / len(counts)
                                  if counts else 0.0)
    m["linalg.det.max_bits"] = max((c[2] for c in counts), default=0)
    span_metrics("linalg.invert", "calls", "self_s")
    span_metrics("linalg.rank", "calls", "self_s")
    m["linalg.self_s"] = layer_self("linalg")
    # scalars
    span_metrics("scalars.q_power", "calls", "self_s")
    span_metrics("scalars.point", "calls", "total_s")
    m["scalars.self_s"] = layer_self("scalars")
    # diagrams
    span_metrics("diagrams.compose", "calls", "self_s")
    span_metrics("diagrams.act_on_half", "calls", "self_s")
    m["diagrams.self_s"] = layer_self("diagrams")
    # wordrep
    for name in ("wordrep.enumerate_basis", "wordrep.action_table"):
        span_metrics(name, "calls")
        m[f"{name}.repeat_ratio"] = repeat_ratio(name)
    span_metrics("wordrep.generator_matrix", "calls")
    span_metrics("wordrep.gram_matrix", "total_s")
    span_metrics("wordrep.relation_audit", "total_s")
    m["wordrep.self_s"] = layer_self("wordrep")
    # hecke
    for fn in ("lift_to_hecke", "murphy", "hecke_relation_audit",
               "murphy_commutation_audit", "equivalent_presentation_audit",
               "centre_audit", "iji_audit"):
        span_metrics(f"hecke.{fn}", "total_s")
    m["hecke.self_s"] = layer_self("hecke")
    # pathbasis
    span_metrics("pathbasis.apply_e", "calls", "self_s")
    span_metrics("pathbasis.build_b1", "calls", "total_s")
    span_metrics("pathbasis.in_coordinates", "calls", "total_s")
    for fn in ("ybe_audit", "idempotent_identities", "action_audit_b1",
               "murphy_audit_b1"):
        span_metrics(f"pathbasis.{fn}", "total_s")
    m["pathbasis.self_s"] = layer_self("pathbasis")
    # spinchain
    span_metrics("spinchain.apply_e", "calls", "self_s")
    for fn in ("spin_relation_audit", "twist_symmetry_audit",
               "equivalence_audit"):
        span_metrics(f"spinchain.{fn}", "total_s")
    m["spinchain.self_s"] = layer_self("spinchain")
    # irreps
    for fn in ("detect_invariant", "family_relation_audit",
               "central_character", "murphy_spectrum_match",
               "traces_agree_all_words"):
        span_metrics(f"irreps.{fn}", "total_s")
    m["irreps.trace_words"] = sum(get("irreps.traces_agree_all_words")[3])
    m["irreps.self_s"] = layer_self("irreps")
    # cli
    m["cli.self_s"] = layer_self("cli")
    m["cli.report_bytes"] = sum(len(i.outcome.stdout) for i in plain)
    # audits, from the untraced reports
    results = []
    for inv in plain:
        try:
            results += json.loads(inv.outcome.stdout).get("results", [])
        except ValueError:
            pass
    m["audit.identities"] = len(results)
    m["audit.failed"] = sum(r.get("status") == "fail" for r in results)
    for family in AUDIT_FAMILIES:
        m[f"audit.{family}.identities"] = sum(
            r["identity_id"].split(".")[0] == family for r in results)
    m["trace.overhead_s"] = (sum(i.outcome.wall_s for i in traced)
                             - sum(i.outcome.wall_s for i in plain))
    e2e = end_to_end(plain)
    for command in TIMED_COMMANDS:
        m[f"{command}_s"] = e2e.get(f"{command}_s", 0.0)
    m["failed_share"] = e2e["failed_share"]
    return m, read


def trace_problems(workload: str, plain: list[Invocation],
                   traced: list[Invocation], spans: list[list],
                   read: set[str]) -> list[str]:
    """Guards of the traced run: identical reports, and a call recorded for
    every layer and span name the metrics read (``read``) wherever
    ``REQUIRED_CALLS`` expects one."""
    problems = []
    for p, t in zip(plain, traced):
        if (p.outcome.stdout != t.outcome.stdout
                or p.outcome.exit_code != t.outcome.exit_code):
            problems.append(f"traced report of '{p.label}' differs from the "
                            "untraced one")
    recorded = {span[0] for span in spans}
    for name in sorted(read):
        if name not in REQUIRED_CALLS:
            problems.append(f"{name} is read by a metric but has no entry "
                            "in REQUIRED_CALLS")
            continue
        if workload not in REQUIRED_CALLS[name]:
            continue
        if "." in name:
            if name not in recorded:
                problems.append(f"span {name} recorded no calls")
        elif not any(n.startswith(name + ".") for n in recorded):
            problems.append(f"layer {name} recorded no calls")
    return problems


def print_metrics(title: str, metrics: dict[str, float],
                  units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units.get(name, '')}")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("bits"):
        return "bit"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tl2b" / "cli.py").is_file():
        print(f"perfbench: no tl2b sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    digests = load_digests()
    probe = run_process([sys.executable, "-c", PROBE], env)
    if probe.exit_code != 0:
        print("perfbench: cannot import tl2b:\n"
              + probe.stderr.decode(errors="replace"), file=sys.stderr)
        return 2
    backend, numpy_version, python_version = probe.stdout.decode().split()
    seed = point_seed(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed, "point_seed": seed,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": python_version,
            "rational_backend": backend, "numpy": numpy_version,
            "git_revision": git_revision(),
            "reference_loop_s": reference_loop_s()}
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    setup_s = measure_setup(env)
    passes: list[list[Invocation]] = []
    start = time.perf_counter()
    while True:
        print(f"pass {len(passes) + 1} ({args.workload}, --seed {seed})",
              flush=True)
        passes.append(run_list(args.workload, seed, backend, digests, env))
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    every = [inv for done in passes for inv in done]
    per_pass = [end_to_end(done) for done in passes]
    e2e = {"setup_s": setup_s}
    e2e.update((name, statistics.median(p[name] for p in per_pass))
               for name in per_pass[0])
    e2e["peak_rss_mb"] = max(p["peak_rss_mb"] for p in per_pass)
    print_metrics("end-to-end (median over passes)", e2e,
                  {k: unit_of(k) for k in e2e})
    for inv in every:
        if inv.problem is not None:
            print(f"failed: {inv.label} --seed {seed}: {inv.problem}")
    problems = [f"wrong report from '{i.label}': {i.problem}"
                for i in every if i.wrong]
    metrics = {name: e2e[name] for name in END_TO_END}
    units = dict(END_TO_END)
    if args.trace:
        plain = passes[0]
        with tempfile.TemporaryDirectory(prefix=".work-",
                                         dir=HERE) as spans_dir:
            print(f"traced pass ({args.workload}, --seed {seed})",
                  flush=True)
            traced = run_list(args.workload, seed, backend, digests, env,
                              spans_dir)
            spans = []
            for k, inv in enumerate(traced):
                try:
                    with open(os.path.join(spans_dir, f"{k}.json"),
                              encoding="utf-8") as handle:
                        part = json.load(handle)
                except FileNotFoundError:
                    tail = inv.outcome.stderr.decode(errors="replace")
                    problems.append(f"traced '{inv.label}' wrote no spans: "
                                    + tail.strip()[-300:])
                    continue
                for span in part:  # parents index into the whole list
                    if span[4] >= 0:
                        span[4] += len(spans)
                spans += part
        metrics, read = per_layer(plain, traced, spans)
        problems += trace_problems(args.workload, plain, traced, spans, read)
        units = {name: unit_of(name) for name in metrics}
        print_metrics("per-layer (traced pass)", metrics, units)
    for problem in problems:
        print(f"problem: {problem}")
    result = {"correct": not problems, "attempted": len(every),
              "failed": sum(inv.problem is not None for inv in every),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
