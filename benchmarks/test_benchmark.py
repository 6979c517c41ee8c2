"""Tests of the benchmark harness itself; outside the library's test suite.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from realbott import (  # noqa: E402
    BottMatrix,
    CensusConfig,
    PMatrix,
    analyze,
    is_free,
    matrix_at,
    run_census,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("generate", [wl.verify_sample_inputs, wl.check_mixed_inputs])
def test_generator_is_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_index_round_trip_matches_census_order():
    for n, index in wl.verify_sample_inputs(3)[:50]:
        assert matrix_at(n, index).rows == wl.rows_at(n, index)
        assert wl.index_of(wl.rows_at(n, index)) == index


def test_planted_inputs_have_their_planted_property():
    rng = random.Random(5)
    for n in range(2, 15, 2):
        rows = wl.planted_kahler(rng, n)
        assert wl.bott_facts(rows)["kahler"]
        assert analyze(BottMatrix(rows)).kahler is not None
    for d in range(2, 9):
        assert is_free(PMatrix(wl.planted_free_pmatrix(rng, d, d + 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reference_rows_pass_the_gate(n):
    row, _ = run_census(CensusConfig(n=n))
    assert wl.census_row_ok(row)


def test_gate_rejects_a_changed_row():
    row, _ = run_census(CensusConfig(n=4))
    wrong = type(row)(**{**row.__dict__, "spin": row.spin + 1})
    assert not wl.census_row_ok(wrong)


def test_workload_names_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in BENCH["workloads"]]


def _last_json_line(trace: int) -> dict:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", "check-mixed"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _last_json_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}
