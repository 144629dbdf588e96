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
