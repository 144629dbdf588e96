"""Tests of the benchmark's own code: spans, counts, report checks, rebinding.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from client import Outcome, check_report  # noqa: E402
from run import (END_TO_END, Invocation, per_layer,  # noqa: E402
                 trace_problems)
import tracer  # noqa: E402
from tracer import Tracer, det_counts, matmul_counts, summarize  # noqa: E402
from workloads import REQUIRED_CALLS, WORKLOADS  # noqa: E402


def span(name, start, end, parent, cover_end=None, counts=None, inv="w.0"):
    return [name, start, end, end if cover_end is None else cover_end,
            parent, counts, inv]


def test_self_time_of_nested_spans():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("linalg.det", 1.0, 4.0, 0, cover_end=5.0),  # 1 s of counting
        span("scalars.q_power", 2.0, 3.0, 1),
        span("linalg.matmul", 6.0, 8.0, 0),
    ]
    stats = summarize(spans)
    assert stats["cli.main"][:3] == [1, 10.0 - 4.0 - 2.0, 10.0]
    assert stats["linalg.det"][:3] == [1, 2.0, 3.0]
    assert stats["scalars.q_power"][:3] == [1, 1.0, 1.0]
    assert stats["linalg.matmul"][:3] == [1, 2.0, 2.0]


def test_recursion_under_one_name_counts_once_in_total():
    spans = [
        span("scalars.q_power", 0.0, 4.0, -1),   # qnum
        span("scalars.q_power", 1.0, 2.0, 0),    # q_power inside it
        span("scalars.q_power", 5.0, 6.0, -1),
    ]
    calls, self_s, total_s, _ = summarize(spans)["scalars.q_power"]
    assert (calls, self_s, total_s) == (3, 5.0, 5.0)


def test_tracer_records_parent_and_counts():
    tracer = Tracer("w.0")
    inner = tracer.wrap("linalg.det", lambda m: 0)
    outer = tracer.wrap("cli.main", lambda: inner(type("M", (), {"nrows": 3})()))
    outer()
    (o, i) = tracer.spans
    assert o[4] == -1 and i[4] == 0 and i[6] == "w.0"
    assert i[5] == (3, 1, 0)
    assert o[1] <= i[1] <= i[2] <= i[3] <= o[2]


def test_visited_and_mults_on_a_hand_checked_product():
    from tl2b.linalg import Matrix

    a = Matrix([[1, 0, Fraction(1, 3)],
                [0, 0, 0],
                [2, 5, 0]])
    b = Matrix([[0, 4],
                [7, 0],
                [1, 1]])
    c = a @ b
    # nonzero a_ik: (0,0) (0,2) (2,0) (2,1) -> visited 4 * ncols(B) = 8;
    # nnz of B's rows 0, 2, 0, 1 -> 1 + 2 + 1 + 1 = 5 products
    visited, mults, bits = matmul_counts((a, b), c)
    assert (visited, mults) == (8, 5)
    # entries of C: 1/3, 4 + 1/3 = 13/3, 35, 8; 35 has 6 + 1 bits
    assert c.rows == [[Fraction(1, 3), Fraction(13, 3)], [0, 0], [35, 8]]
    assert bits == 7
    assert det_counts((a,), Fraction(0)) == (3, 1, 0)
    assert det_counts((a,), Fraction(-5, 2)) == (3, 0, 5)


def report_bytes(status="pass"):
    doc = {"schema": "tl2b/1", "status": status,
           "results": [{"identity_id": "gram.det.halfdiagram_basis",
                        "status": status, "deviation": "0"}]}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def outcome(stdout, code=0):
    return Outcome(1.0, 1.0, 20.0, code, stdout, b"")


def test_digest_check_catches_a_tampered_report():
    good = report_bytes()
    digests = {"fraction": {"1": {
        "gram --n 4": hashlib.sha256(good).hexdigest()}}}
    assert check_report("gram --n 4", 1, "fraction", outcome(good),
                        digests) == (None, False)
    tampered = good.replace(b'"0"', b'"1"')
    assert tampered != good
    problem, wrong = check_report("gram --n 4", 1, "fraction",
                                  outcome(tampered), digests)
    assert "digest" in problem and wrong
    for seed, backend in ((2, "fraction"), (1, "gmpy2")):
        problem, wrong = check_report("gram --n 4", seed, backend,
                                      outcome(good), digests)
        assert "no stored digest" in problem and not wrong


def test_report_check_fails_open_errors_and_failing_status():
    digests = {}
    error = b'{"schema": "tl2b/1", "status": "error", "error": "ValueError: x"}'
    for stdout, code, reason in (
            (error, 2, "ValueError: x"),
            (report_bytes("fail"), 1, "status fail"),
            (b"Traceback", 1, "no JSON")):
        problem, wrong = check_report("gram --n 4", 1, "fraction",
                                      outcome(stdout, code), digests)
        assert reason in problem and not wrong


REBIND_CHECK = r"""
import contextlib, io, json
from tracer import Tracer, install
from tl2b import cli, diagrams, hecke, irreps, linalg, pathbasis, spinchain, wordrep
from tl2b.pathbasis import ModuleRep
from tl2b.spinchain import SpinRep
originals = {"exact_det": linalg.exact_det, "compose": diagrams.compose,
             "act_on_half": diagrams.act_on_half,
             "generator_matrix": wordrep.generator_matrix,
             "invert": linalg.invert, "rank": linalg.rank,
             "apply_r": ModuleRep.apply_r}
tracer = Tracer("t.0")
install(tracer)
pairs = {
    "cli.exact_det": (cli.exact_det, linalg.exact_det, "exact_det"),
    "wordrep.compose": (wordrep.compose, diagrams.compose, "compose"),
    "wordrep.act_on_half": (wordrep.act_on_half, diagrams.act_on_half,
                            "act_on_half"),
    "hecke.generator_matrix": (hecke.generator_matrix,
                               wordrep.generator_matrix, "generator_matrix"),
    "irreps.invert": (irreps.invert, linalg.invert, "invert"),
    "pathbasis.invert": (pathbasis.invert, linalg.invert, "invert"),
    "irreps.rank": (irreps.rank, linalg.rank, "rank"),
    "SpinRep.apply_r": (SpinRep.apply_r, ModuleRep.apply_r, "apply_r"),
}
out = {}
for ref, (got, home, key) in pairs.items():
    out[ref] = (got is home and got is not originals[key]
                and got.__wrapped__ is originals[key])
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["gram", "--n", "2"])
out["spans"] = sorted({s[0] for s in tracer.spans})
print(json.dumps(out))
"""


def test_install_rebinds_every_reference():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", REBIND_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    spans = out.pop("spans")
    assert out == {ref: True for ref in out}, out
    for name in ("cli.main", "cli.cmd_gram", "linalg.det", "scalars.point",
                 "diagrams.compose", "wordrep.gram_matrix"):
        assert name in spans


def test_install_refuses_a_renamed_method(monkeypatch):
    from tl2b import linalg

    monkeypatch.setattr(tracer, "METHODS", tracer.METHODS
                        + (("linalg", "Matrix", "renamed", "linalg.x"),))
    with pytest.raises(KeyError):
        tracer.install(Tracer("t.0"))
    # nothing was rebound before the refusal
    assert not hasattr(linalg.exact_det, "__wrapped__")


def fake_invocation(stdout, code=0, command="gram"):
    return Invocation((command, "--n", "4"), outcome(stdout, code), None,
                      False)


def required_spans(workload):
    """One span of every name REQUIRED_CALLS expects on the workload."""
    names = [name if "." in name else f"{name}.f"
             for name, workloads in REQUIRED_CALLS.items()
             if workload in workloads]
    return [span(name, 0.0, 1.0, -1) for name in names]


def test_trace_guard_catches_one_byte_and_silent_layers():
    plain = [fake_invocation(report_bytes())]
    same = [fake_invocation(report_bytes())]
    spans = [span(name, 0.0, 1.0, -1) for name in
             ("scalars.point", "diagrams.compose", "wordrep.gram_matrix",
              "linalg.det", "pathbasis.gram_closed_form", "cli.main")]
    _, read = per_layer(plain, same, spans)
    assert trace_problems("determinants", plain, same, spans, read) == []
    changed = [fake_invocation(report_bytes() + b" ")]
    assert any("differs" in p for p in
               trace_problems("determinants", plain, changed, spans, read))
    problems = trace_problems("determinants", plain, same, spans[1:], read)
    assert problems == ["layer scalars recorded no calls",
                        "span scalars.point recorded no calls"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_guard_covers_every_span_a_metric_reads(workload):
    plain = [fake_invocation(report_bytes())]
    spans = required_spans(workload)
    _, read = per_layer(plain, plain, spans)
    assert trace_problems(workload, plain, plain, spans, read) == []
    # a renamed function: its span disappears, and its metrics would read 0
    for k, s in enumerate(spans):
        if "." in s[0] and not s[0].endswith(".f"):
            rest = spans[:k] + spans[k + 1:]
            assert trace_problems(workload, plain, plain, rest, read) == \
                [f"span {s[0]} recorded no calls"]


def test_every_name_read_by_a_metric_has_a_guard_entry():
    plain = [fake_invocation(report_bytes())]
    _, read = per_layer(plain, plain, [])
    assert read == set(REQUIRED_CALLS)
    for name, workloads in REQUIRED_CALLS.items():
        assert workloads and set(workloads) <= set(WORKLOADS), name
    problems = trace_problems("operators", plain, plain, [],
                              read | {"linalg.renamed"})
    assert ("linalg.renamed is read by a metric but has no entry in "
            "REQUIRED_CALLS") in problems


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        END_TO_END
    plain = [fake_invocation(report_bytes())]
    assert list(per_layer(plain, plain, [])[0]) == \
        [m["name"] for m in declared["per_layer"]]
