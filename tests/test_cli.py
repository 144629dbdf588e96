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


class WorkStarted(Exception):
    """Raised by the patched entry points of every command's work."""


@pytest.fixture
def no_work(monkeypatch):
    """Make the first step of every command raise ``WorkStarted``."""
    import tl2b.cli as cli

    def started(*args):
        raise WorkStarted

    monkeypatch.setattr(cli, "_build_point", started)
    monkeypatch.setattr(cli.irreps, "conjecture_check", started)


def refusal(argv):
    """The error text of a request refused with the error record."""
    code, out = run(argv)
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    return doc["error"]


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


@pytest.mark.parametrize("n", range(2, 8))
def test_module_nodes_are_the_conjecture_cases(n):
    from tl2b.irreps import conjecture_cases

    _, out = run(["modules", "--n", str(n)])
    nodes = [(d["n"], d["eps1"], d["eps2"])
             for d in json.loads(out)["modules"] if d["n"] is not None]
    # both list the same labels; the modules table puts n = 0 first
    assert nodes[0][0] == 1 - n % 2
    assert sorted(nodes, key=lambda node: node[0] == 0) == conjecture_cases(n)


def critical_twists(n):
    """(sign, ``--theta`` argument) of every critical twist at length n."""
    from tl2b.pathbasis import exceptional_points

    sign = {1: "+", -1: "-"}
    return [(s, f"--theta={sign[s]},{m},{sign[e1]},{sign[e2]}")
            for s, m, e1, e2 in exceptional_points(n)]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_relations_is_served_at_every_critical_twist(n):
    for _, twist in critical_twists(n):
        code, out = run(["relations", "--n", str(n), twist])
        assert code == 0, (twist, json.loads(out).get("error"))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("command",
                         ["gram", "basis", "spinchain", "irreps", "modules"])
def test_every_command_is_served_at_every_critical_twist(command, n):
    for sign, twist in critical_twists(n):
        code, out = run([command, "--n", str(n), twist])
        doc = json.loads(out)
        assert doc["schema"] == "tl2b/1", twist
        if command == "spinchain" and sign == -1:
            # the spin path basis B_s is singular at every sign -1 twist;
            # ROADMAP item 4 certifies it in the report instead
            assert code == 2, twist
            assert doc["error"] == "ZeroDivisionError: matrix is singular"
        else:
            assert code == 0, (twist, doc.get("error"))


def test_exceptional_report():
    code, out = run(["irreps", "--n", "4", "--theta=-,3,+,-"])
    doc = json.loads(out)
    assert code == 0 and doc["dims"] == doc["expected_dims"]


def test_failure_exit_code(monkeypatch):
    import tl2b.cli as cli

    def broken_audit(spec, store=None):
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


def test_bad_chain_length(no_work):
    assert refusal(["relations", "--n", "1"]) == (
        "ValueError: chain length must be at least 2, not n = 1")


def test_negative_bound_is_refused_before_any_work(no_work):
    assert refusal(["gram", "--n", "2", "--bound", "-1"]) == (
        "ValueError: --bound must be nonnegative, not -1")


def test_explicit_twist_roundtrip():
    code, out = run(["gram", "--n", "2", "--theta", "5/9"])
    doc = json.loads(out)
    assert code == 0 and doc["point"]["t"] == "5/9"


def test_symbolic_backend_guard(no_work):
    assert refusal(["relations", "--n", "5", "--backend", "symbolic"]) == (
        "ValueError: symbolic relations is supported for n <= 4, not n = 5")


@pytest.mark.parametrize("n", [3, 4])
def test_symbolic_gram_is_refused_before_any_work(no_work, n):
    assert refusal(["gram", "--n", str(n), "--backend", "symbolic"]) == (
        f"ValueError: symbolic gram is supported for n <= 2, not n = {n}")


@pytest.mark.parametrize("command", ["relations", "gram", "basis", "spinchain",
                                     "irreps", "modules"])
@pytest.mark.parametrize("n", [9, 30])
def test_oversized_chain_is_refused_before_any_work(no_work, command, n):
    assert refusal([command, "--n", str(n)]) == (
        f"ValueError: {command} is supported for n <= 8, not n = {n}")


#: the largest n served, by backend and command; ``irreps`` at its limit
#: through a critical twist, since ``--theta generic`` stops earlier
LIMITS = [("numeric", command, 8) for command in (
    "relations", "gram", "basis", "spinchain", "irreps", "modules")] + [
    ("symbolic", "relations", 4), ("symbolic", "gram", 2),
    ("symbolic", "basis", 4), ("symbolic", "spinchain", 4),
    ("symbolic", "modules", 4)]


@pytest.mark.parametrize("backend, command, limit", LIMITS)
def test_each_limit_is_served_and_the_next_n_refused(no_work, backend,
                                                     command, limit):
    argv = [command, "--backend", backend, "--n"]
    twist = ["--theta=+,1,+,+"] if command == "irreps" else []
    with pytest.raises(WorkStarted):
        run(argv + [str(limit)] + twist)
    prefix = "symbolic " if backend == "symbolic" else ""
    assert refusal(argv + [str(limit + 1)]) == (
        f"ValueError: {prefix}{command} is supported for n <= {limit}, "
        f"not n = {limit + 1}")


def test_generic_irreps_is_served_to_six_and_refused_at_seven(no_work):
    with pytest.raises(WorkStarted):
        run(["irreps", "--n", "6"])
    assert refusal(["irreps", "--n", "7", "--theta", "generic"]) == (
        "ValueError: irreps --theta generic is supported for n <= 6, "
        "not n = 7")


def test_symbolic_irreps_is_refused(no_work):
    assert refusal(["irreps", "--n", "2", "--backend", "symbolic"]) == (
        "ValueError: symbolic irreps is not supported")


def test_irreps_refuses_an_explicit_twist(no_work):
    assert refusal(["irreps", "--n", "3", "--theta", "3/2"]) == (
        "ValueError: irreps takes --theta generic or a critical twist, "
        "not an explicit value")


def test_critical_irreps_builds_its_point_with_every_command(no_work):
    with pytest.raises(WorkStarted):
        run(["irreps", "--n", "4", "--theta=-,3,+,-"])


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


@pytest.mark.parametrize("argv, command, error", [
    (["relations", "--n", "x"], "relations", "argument --n: invalid int"),
    (["relations", "--n", "2", "--backend", "foo"], "relations",
     "argument --backend: invalid choice"),
    (["relations"], "relations", "required: --n"),
    (["gram", "--n", "2", "--bogus"], "gram", "unrecognized arguments"),
    ([], None, "required: command"),
    (["bogus", "--n", "2"], None, "argument command: invalid choice"),
], ids=["n-not-int", "unknown-backend", "missing-n", "unknown-flag",
        "no-command", "unknown-command"])
def test_unparsable_arguments_give_error_record(no_work, capsys, argv,
                                                command, error):
    code, out = run(argv)
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "error"
    assert doc["command"] == command
    assert doc["error"].startswith("ValueError: ") and error in doc["error"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["gram", "--help"]])
def test_help_prints_usage_and_exits_zero(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert buf.getvalue().startswith("usage: tl2b")


def test_unwritable_out_gives_error_record(no_work, tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    code, out = run(["gram", "--n", "2", "--out", str(target)])
    doc = json.loads(out)
    assert code == 2 and doc["command"] == "gram"
    assert doc["error"].startswith("FileNotFoundError: ")
    assert not target.parent.exists()


def test_failed_command_keeps_an_existing_out_file(tmp_path):
    target = tmp_path / "x.json"
    target.write_text("kept\n")
    assert refusal(["gram", "--n", "2", "--theta", "0", "--out",
                    str(target)]).startswith("GenericityError: ")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
def test_failed_command_removes_the_out_file_it_created(monkeypatch,
                                                        tmp_path, error):
    import tl2b.cli as cli

    def fail(args):
        raise error("late")

    monkeypatch.setattr(cli, "cmd_gram", fail)
    target = tmp_path / "x.json"
    argv = ["gram", "--n", "2", "--out", str(target)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run(argv)
    else:
        assert refusal(argv) == "ArithmeticError: late"
    assert not target.exists()


@pytest.mark.parametrize("command", ["gram", "irreps"])
@pytest.mark.parametrize("theta", ["x,3,+,-", "-,3,+,y"])
def test_bad_theta_gives_error_record(command, theta):
    code, out = run([command, "--n", "4", f"--theta={theta}"])
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "tl2b/1" and doc["status"] == "error"
    assert doc["error"].startswith("ValueError: --theta sign")


@pytest.mark.parametrize("theta", ["+,1,+", "+,1,+,+,+", "+,x,+,+"])
def test_malformed_critical_twist_names_its_form(theta):
    assert refusal(["gram", "--n", "4", f"--theta={theta}"]) == (
        f"ValueError: --theta {theta!r} is not a critical twist "
        "sign,m,eps1,eps2 with an integer m")


@pytest.mark.parametrize("theta", ["7/5", "-3"])
def test_rational_twists_without_a_comma_stay_explicit(theta):
    code, out = run(["gram", "--n", "2", f"--theta={theta}"])
    assert code == 0 and json.loads(out)["point"]["t"] == theta


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
