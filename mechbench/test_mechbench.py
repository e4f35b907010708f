"""Tests of the benchmark itself: metric names, emitted metrics, failure counting.

Run from the repository root with `python3 -m pytest mechbench`.
"""

import json
import math
import os
import re
from pathlib import Path

import pytest

import bench_checks as checks
import run
from bench_clock import Scaler, pinned

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_pattern_and_declared_units():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in [*declared_e2e, *declared_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def small(monkeypatch):
    """Shrink every trial count so that each workload runs in seconds."""
    monkeypatch.setitem(run.PLAN, "setup_repeats", 1)
    monkeypatch.setitem(run.PLAN, "layer_fit_trials", 4)
    monkeypatch.setitem(run.PLAN["workloads"]["table1"], "trials", 100)
    monkeypatch.setitem(run.PLAN["workloads"]["table2"], "trials", 30)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_emits_every_declared_metric(small, workload, trace, capsys):
    result = run.run(workload, seed=7, seconds=0.01, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    assert result["attempted"] >= 1
    assert (result["correct"], result["failed"]) == (True, 0), capsys.readouterr().err
    printed = capsys.readouterr().out
    for m in declared:
        assert re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}", printed, re.M)
    assert "failed_frac = 0 " in printed


def _table1_csv(hybrid=(5.9, 4.6, 2.8, 1.2, 0.33)):
    lines = [checks.TABLE1_HEADER]
    ln_k = math.log(8)
    for r, hyb in zip(checks.R_GRID, hybrid):
        uni = 5.9
        lines.append(",".join(f"{x:.6g}" for x in (
            r, ln_k - r, hyb, 0.3, uni, 0.3, 7.8, 0.0, uni / hyb,
            math.sqrt(ln_k / (ln_k - r)), 7.8 / hyb)))
    return "\n".join(lines) + "\n"


def test_valid_table_passes():
    text = _table1_csv()
    assert checks.check_table1(text, text).failed == 0


@pytest.mark.parametrize("corrupt", [
    lambda row: row.replace(",", ";", 1),            # wrong separator
    lambda row: ",".join(row.split(",")[:-1]),       # missing field
    lambda row: ",".join(["nan" if i == 2 else f for i, f in enumerate(row.split(","))]),
])
def test_corrupted_row_counts_its_cells_as_failed(corrupt):
    lines = _table1_csv().splitlines()
    lines[3] = corrupt(lines[3])
    text = "\n".join(lines) + "\n"
    result = checks.check_table1(text, text)
    assert {(2, alg) for alg in checks.TABLE1_ALGS} <= result.bad
    assert result.failed >= 3


def test_dropped_row_and_statistical_misses_are_failures():
    lines = _table1_csv().splitlines()
    text = "\n".join(lines[:-1]) + "\n"
    assert checks.check_table1(text, text).failed >= 3
    flat = _table1_csv(hybrid=(5.9, 4.6, 4.6, 1.2, 0.33))  # not strictly decreasing
    assert checks.check_table1(flat, flat).bad >= {(1, "hybrid"), (2, "hybrid")}
    text = _table1_csv()
    assert checks.check_table1(text, text.replace("7.8", "7.9", 1)).failed == 15


def test_nonzero_cli_exit_is_counted_not_dropped(tmp_path):
    m = run.import_package()
    tally = run.Tally()
    bad_flag = lambda argv: run.run_inprocess(m["cli"], [*argv, "--no-such-flag"])
    run.cli_round(run.random.Random(0), tmp_path, tally, bad_flag)
    assert (tally.attempted, tally.failed) == (5, 5)

    rc, _wall, _out, err = run.run_fresh(["certify", "--b-mu", "not-a-number"])
    assert rc != 0 and "error" in err

    call = run.SimCall(m["cli"], 1, 0, 1, 1, tmp_path)  # --trials 0 is rejected
    assert call.rc != 0
    assert call.check().failed == 15


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (3.0, 75.0, 4)  # never below the median


def test_scaler_brackets_the_call_and_pinning_is_undone():
    before = os.sched_getaffinity(0)
    with pinned():
        assert len(os.sched_getaffinity(0)) == 1
        result, factor = Scaler(0.0055).call(lambda: 42)
    assert os.sched_getaffinity(0) == before
    assert result == 42 and 0.0 < factor < 100.0
