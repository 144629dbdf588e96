"""Regenerate ``perfbench/digests.json``, the stored correct reports.

    python3 perfbench/make_digests.py

runs every workload invocation once per ``tl2b`` seed in
``workloads.POINT_SEEDS`` (the only seeds the benchmark runs) and replaces
the stored SHA-256 of each report under the rational backend in use.
Reference reports are produced with the integer-string limit lifted
(``-X int_max_str_digits=0``), so that the stored digest of ``gram --n 7``
is that of the complete report the command should print, not of the error
it prints today.  The benchmark itself never lifts the limit.  Check every
report by hand before committing new digests.
"""

from __future__ import annotations

import hashlib
import json
import sys

from client import DIGESTS, child_env, run_process
from workloads import POINT_SEEDS, WORKLOADS, argv, label

BACKEND_PROBE = "from tl2b._ratback import BACKEND; print(BACKEND)"


def main() -> int:
    seeds = sorted({s for pool in POINT_SEEDS.values() for s in pool})
    env = child_env()
    backend = run_process([sys.executable, "-c", BACKEND_PROBE],
                          env).stdout.decode().strip()
    try:
        data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        data = {}
    invocations = {label(inv): inv for invs in WORKLOADS.values()
                   for inv in invs}
    data[backend] = {}  # every point of this backend is made afresh
    for seed in seeds:
        stored = data[backend].setdefault(str(seed), {})
        for name, inv in invocations.items():
            cmd = [sys.executable, "-X", "int_max_str_digits=0", "-m",
                   "tl2b.cli", *argv(inv, seed)]
            out = run_process(cmd, env)
            report = json.loads(out.stdout)
            if out.exit_code != 0 or report.get("status") != "pass":
                print(f"seed {seed} {name}: exit {out.exit_code}, "
                      f"status {report.get('status')}", file=sys.stderr)
                return 1
            stored[name] = hashlib.sha256(out.stdout).hexdigest()
            print(f"seed {seed} {name}: {out.wall_s:.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
