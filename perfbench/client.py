"""Closed-loop client: one ``tl2b`` process at a time, timed and checked.

An invocation passes only if it exits 0, prints a ``tl2b/1`` report with
``status: pass``, and the report's SHA-256 equals the digest stored for that
invocation, seed and rational backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def child_env() -> dict[str, str]:
    """The environment of every child: the package from ``src``, nothing else
    changed (in particular no raised integer-string limit)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def run_process(cmd: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to completion; CPU time and max-RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[int, list[bytes]] = {}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in (proc.stdout, proc.stderr):
                chunks[pipe.fileno()] = []
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # reaped here rather than by Popen, so that wait4 reports the child's usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[fd]) for fd in chunks)
    return Outcome(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, proc.returncode, out, err)


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def check_report(label: str, seed: int, backend: str, outcome: Outcome,
                 digests: dict) -> tuple[str | None, bool]:
    """(None, False) when the invocation passes, else (reason, wrong).

    ``wrong`` marks a report that claims to pass but is not the stored one,
    as opposed to an invocation that fails openly.
    """
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()
        return (f"exit {outcome.exit_code}, no JSON report"
                + (f": {tail[-1]}" if tail else "")), False
    if not isinstance(report, dict) or report.get("schema") != "tl2b/1":
        return "not a tl2b/1 report", outcome.exit_code == 0
    if outcome.exit_code != 0 or report.get("status") != "pass":
        detail = report.get("error") or report.get("first_failure")
        return (f"exit {outcome.exit_code}, status {report.get('status')}: "
                f"{detail}"), False
    digest = hashlib.sha256(outcome.stdout).hexdigest()
    stored = digests.get(backend, {}).get(str(seed), {}).get(label)
    if stored is None:
        return f"no stored digest for seed {seed}, backend {backend}", False
    if digest != stored:
        return f"report digest {digest[:12]} != stored {stored[:12]}", True
    return None, False
