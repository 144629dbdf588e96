"""Byte-for-byte comparison of CLI reports with committed golden files.

The files under ``tests/golden`` were written by the CLI with the default
seed and the ``Fraction`` backend.  A refactor must reproduce them exactly;
regenerate them (``python tests/test_golden.py``) only when a change is
meant to alter a report, and say which reports changed and why.

Larger reports (N = 6 and 7) are checked against the SHA-256 digests that
the benchmark stores in ``perfbench/digests.json``; this file only reads
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from tl2b._ratback import BACKEND
from tl2b.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
DIGESTS = pathlib.Path(__file__).parent.parent / "perfbench" / "digests.json"

CASES = [
    *([cmd, "--n", str(n)]
      for cmd in ("relations", "gram", "basis", "spinchain", "modules")
      for n in range(2, 6)),
    *(["irreps", "--n", str(n)] for n in range(2, 5)),
    ["irreps", "--n", "4", "--theta=-,3,+,-"],
    ["irreps", "--n", "5", "--theta=+,2,-,+"],
    *([cmd, "--n", "2", "--backend=symbolic"]
      for cmd in ("relations", "gram", "basis", "spinchain")),
    # a larger symbolic change of basis: it gets no residue certificate,
    # so spinchain inverts it exactly
    ["spinchain", "--n", "3", "--backend=symbolic"],
]


def golden_name(argv: list[str]) -> str:
    """``irreps --n 4 --theta=-,3,+,-`` -> ``irreps_n4_theta_m3pm.json``,
    ``gram --n 2 --backend=symbolic`` -> ``gram_n2_symbolic.json``."""
    name = f"{argv[0]}_n{argv[2]}"
    for arg in argv[3:]:
        flag, value = arg.split("=", 1)
        if flag == "--backend":
            name += "_" + value
        else:
            name += "_theta_" + value.translate(str.maketrans("+-", "pm", ","))
    return name + ".json"


def report(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue().encode("utf-8")


@pytest.mark.skipif(BACKEND != "fraction",
                    reason="golden reports record the Fraction backend name")
@pytest.mark.parametrize("argv", CASES, ids=golden_name)
def test_report_matches_golden(argv):
    assert report(argv) == (GOLDEN / golden_name(argv)).read_bytes()


#: benchmark invocations whose stored digest is checked, at point seed 4
DIGEST_SEED = 4
DIGEST_CASES = [
    ["basis", "--n", "6"],
    ["gram", "--n", "6"],
    *(["gram", "--n", "6", f"--theta={twist}"]
      for twist in ("+,1,-,+", "+,3,-,+", "+,5,-,+")),
    ["irreps", "--n", "4"],
    *(["irreps", "--n", "6", f"--theta={twist}"]
      for twist in ("+,1,-,+", "+,3,-,+", "+,5,-,+")),
    ["modules", "--n", "7"],
    ["spinchain", "--n", "6"],
]


@pytest.mark.skipif(BACKEND != "fraction",
                    reason="the checked digests record the Fraction backend")
@pytest.mark.parametrize("argv", DIGEST_CASES, ids=" ".join)
def test_report_matches_stored_digest(argv):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = stored["fraction"][str(DIGEST_SEED)][" ".join(argv)]
    digest = hashlib.sha256(report([*argv, "--seed", str(DIGEST_SEED)]))
    assert digest.hexdigest() == expected


if __name__ == "__main__":
    if BACKEND != "fraction":
        sys.exit("regenerate the golden reports with TL2B_RATIONAL=fraction")
    for argv in CASES:
        (GOLDEN / golden_name(argv)).write_bytes(report(argv))
