from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

from tl2b.cli import main


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["relations", "--n", "2"],
    ["gram", "--n", "2"],
    ["basis", "--n", "3"],
    ["spinchain", "--n", "3"],
    ["modules", "--n", "3"],
    ["irreps", "--n", "2"],
    ["irreps", "--n", "3", "--theta", "+,0,+,+"],
])
def test_commands_pass(argv):
    code, out = run(argv + ["--seed", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["schema"] == "tl2b/1"
    assert doc["config"]["seed"] == 2
    assert "version" in doc


def test_reports_are_deterministic():
    _, first = run(["basis", "--n", "3", "--seed", "9"])
    _, second = run(["basis", "--n", "3", "--seed", "9"])
    assert first == second


def test_report_embeds_point():
    _, out = run(["gram", "--n", "2", "--seed", "4"])
    doc = json.loads(out)
    assert set(doc["point"]) == {"s", "a", "v", "t", "bound"}
    assert doc["det_halfdiagram_basis"] != "0"
    assert doc["normalization_exponent"] == 4
    assert len(doc["exceptional_points"]) == 8


def test_modules_table_n3():
    _, out = run(["modules", "--n", "3"])
    doc = json.loads(out)
    dims = sorted(d["dim"] for d in doc["modules"])
    assert dims == [1, 1, 1, 1, 4, 8]
    assert any(e["to"] == "W(3)(b)" for e in doc["embedding_edges"])


def test_exceptional_report():
    code, out = run(["irreps", "--n", "4", "--theta=-,3,+,-"])
    doc = json.loads(out)
    assert code == 0 and doc["dims"] == doc["expected_dims"]


def test_failure_exit_code(monkeypatch):
    import tl2b.cli as cli

    def broken_audit(spec):
        return [{"identity_id": "forced", "status": "fail",
                 "deviation": "entry(0,0)"}]

    monkeypatch.setattr(cli.wordrep, "relation_audit", broken_audit)
    code, out = run(["relations", "--n", "2"])
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "fail"
    assert doc["first_failure"]["identity_id"] == "forced"


def test_csv_format(tmp_path):
    target = tmp_path / "gram.csv"
    code, _ = run(["gram", "--n", "2", "--out", str(target),
                   "--format", "csv"])
    lines = target.read_text().splitlines()
    assert lines[0].startswith("basis,")
    assert len(lines) == 5


def test_bad_chain_length():
    with pytest.raises(SystemExit):
        run(["relations", "--n", "1"])


def test_explicit_twist_roundtrip():
    code, out = run(["gram", "--n", "2", "--theta", "5/9"])
    doc = json.loads(out)
    assert code == 0 and doc["point"]["t"] == "5/9"


def test_symbolic_backend_guard():
    with pytest.raises(SystemExit):
        run(["relations", "--n", "5", "--backend", "symbolic"])


@pytest.mark.parametrize("n", [3, 4])
def test_symbolic_gram_is_refused_before_any_work(monkeypatch, n):
    import tl2b.cli as cli

    def no_work(args):
        pytest.fail("the point was built before the refusal")

    monkeypatch.setattr(cli, "_build_point", no_work)
    code, out = run(["gram", "--n", str(n), "--backend", "symbolic"])
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    assert doc["error"] == ("ValueError: symbolic gram is supported for "
                            f"n <= 2, not n = {n}")


@pytest.mark.parametrize("command", ["relations", "gram", "basis", "spinchain",
                                     "irreps", "modules"])
@pytest.mark.parametrize("n", [9, 30])
def test_oversized_chain_is_refused_before_any_work(monkeypatch, command, n):
    import tl2b.cli as cli

    def no_work(*args):
        raise ValueError("work started")

    monkeypatch.setattr(cli, "_build_point", no_work)
    monkeypatch.setattr(cli.irreps, "conjecture_check", no_work)
    code, out = run([command, "--n", str(n)])
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    if command == "modules":  # counts dimensions only: not refused
        assert doc["error"] == "ValueError: work started"
    else:
        assert doc["error"] == (f"ValueError: {command} is supported for "
                                f"n <= 8, not n = {n} (a module of "
                                f"dimension 2^{n})")


@pytest.mark.parametrize("argv, error", [
    (["--theta", "0"], "GenericityError: t must be a nonzero rational"),
    (["--backend", "symbolic", "--theta=+,1,+,+"],
     "ValueError: the symbolic backend only supports --theta generic"),
])
def test_rejected_twist_gives_error_record(argv, error):
    code, out = run(["gram", "--n", "2"] + argv)
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    assert doc["error"] == error


@pytest.mark.parametrize("command", ["gram", "irreps"])
@pytest.mark.parametrize("theta", ["x,3,+,-", "-,3,+,y"])
def test_bad_theta_gives_error_record(command, theta):
    code, out = run([command, "--n", "4", f"--theta={theta}"])
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    assert doc["error"].startswith("ValueError: --theta sign")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_reports_print_past_the_int_digit_limit():
    # the N = 5 determinant has 3509 characters
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(["gram", "--n", "5"])
        limit_after = sys.get_int_max_str_digits()
        # user input is still parsed under the limit
        bad_code, bad_out = run(["gram", "--n", "2", "--theta",
                                 "1/1" + "0" * 700])
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert limit_after == 640
    assert bad_code == 2 and json.loads(bad_out)["status"] == "error"


def test_relations_builds_each_generator_once(monkeypatch):
    from tl2b import wordrep

    calls = []
    table = wordrep.action_table
    monkeypatch.setattr(wordrep, "action_table",
                        lambda spec, i: calls.append(i) or table(spec, i))
    code, _ = run(["relations", "--n", "3", "--seed", "2"])
    assert code == 0 and sorted(calls) == [0, 1, 2, 3]
