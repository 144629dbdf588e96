"""``benchmarks/record_bench.py`` summaries on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "record_bench.py"


def load_record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_run(side, seed, wall, rss_per_pass):
    metrics = {"wall_s": wall, "cpu_s": wall, "setup_s": 0.2,
               "peak_rss_mb": max(rss_per_pass)}
    return {
        "side": side, "workload": "operators", "seed": seed,
        "passes": [{"wall_s": wall, "peak_rss_mb": rss}
                   for rss in rss_per_pass],
        "result": {"correct": True, "failed": 0,
                   "metrics": {name: {"value": value}
                               for name, value in metrics.items()}},
    }


def test_summary_shows_passes_and_first_pass_rss(capsys):
    record_bench = load_record_bench()
    runs = [synthetic_run("parent", 1, 9.0, [21.5]),
            synthetic_run("change", 1, 5.0, [21.6, 23.5])]
    assert record_bench.summarize(runs, ["parent", "change"]) == 0
    parent, change = capsys.readouterr().out.splitlines()
    assert "passes 1 (1-1)  first-pass peak_rss_mb 21.50 MiB" in parent
    assert "passes 2 (2-2)  first-pass peak_rss_mb 21.60 MiB" in change
    assert "peak_rss_mb 23.500" in change
    assert "lower wall_s on 1 of 1" in change
    assert "lower wall_s on 0 of 1" in parent


def synthetic_traced_run(side, seed, layers, correct=True):
    return {
        "side": side, "workload": "operators", "seed": seed, "trace": 1,
        "passes": [{"wall_s": 1.0, "peak_rss_mb": 21.0}],
        "result": {"correct": correct, "failed": 0,
                   "metrics": {name: {"value": value}
                               for name, value in layers.items()}},
    }


def test_summary_gives_the_median_of_each_named_layer(capsys):
    record_bench = load_record_bench()
    runs = []
    for seed, (parent_s, change_s) in enumerate([(1.0, 0.4), (1.2, 0.5),
                                                 (1.1, 0.6)]):
        runs += [synthetic_run("parent", seed, 3.5, [21.7]),
                 synthetic_traced_run("parent", seed,
                                      {"linalg.matmul.self_s": parent_s,
                                       "linalg.self_s": 2 * parent_s}),
                 synthetic_run("change", seed, 2.0, [21.8]),
                 synthetic_traced_run("change", seed,
                                      {"linalg.matmul.self_s": change_s,
                                       "linalg.self_s": 2 * change_s})]
    layers = ("linalg.matmul.self_s", "linalg.self_s")
    assert record_bench.summarize(runs, ["parent", "change"], layers) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    parent, parent_traced, change, change_traced = lines
    # the traced runs are no pass of the untraced summary
    assert "median of 3 seeds: wall_s 3.500" in parent
    assert "passes 1 (1-1)" in parent and "lower wall_s on 0 of 3" in parent
    assert "lower wall_s on 3 of 3" in change
    assert "traced, median of 3 seeds" in parent_traced
    assert "linalg.matmul.self_s 1.100 (IQR 0.100)" in parent_traced
    assert "linalg.self_s 2.200 (IQR 0.200)" in parent_traced
    assert "linalg.matmul.self_s 0.500 (IQR 0.100)" in change_traced
    assert "linalg.self_s 1.000 (IQR 0.200)" in change_traced
    # without layers, the traced runs are left out of the summary
    assert record_bench.summarize(runs, ["parent", "change"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_a_traced_run_that_is_not_correct_counts(capsys):
    record_bench = load_record_bench()
    runs = [synthetic_run("change", 1, 2.0, [21.8]),
            synthetic_traced_run("change", 1, {"linalg.self_s": 1.0},
                                 correct=False)]
    assert record_bench.summarize(runs, ["change"], ("linalg.self_s",)) == 1
    assert "1 runs not correct" in capsys.readouterr().out.splitlines()[1]
