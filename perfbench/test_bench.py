"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

GOOD_COMPLEX = {
    "analysis": {"depth": 2, "dim": 3, "is_cm": False},
    "f_pure": True,
    "oracle_check": {"agreements": 5**6 * 4, "mismatches": 0},
    "models": [{"i": 2, "skipped": None, "anti_nilpotent": True}],
}
COMPLEX_EXPECT = {
    "kind": "complex", "n_vertices": 6, "depth": 2, "dim": 3, "is_cm": False,
    "box": [-3, 1], "enumerate_all": True,
}
GOOD_HYPERSURFACE = {"f_pure": True, "f_injective": {"t=1": True, "t=2": True}}
HYPERSURFACE_EXPECT = {"kind": "hypersurface", "f_pure": True}


def doctored(report, path, value):
    out = copy.deepcopy(report)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_checker_accepts_good_reports():
    assert checker.check(GOOD_COMPLEX, COMPLEX_EXPECT) == []
    assert checker.check(GOOD_HYPERSURFACE, HYPERSURFACE_EXPECT) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("analysis", "depth"), 3),
        (("analysis", "is_cm"), True),
        (("f_pure",), False),
        (("oracle_check", "mismatches"), 1),
        (("oracle_check", "agreements"), 5**6 * 4 - 1),
        (("models", 0, "skipped"), "cap"),
    ],
)
def test_checker_rejects_doctored_complex_report(path, value):
    assert checker.check(doctored(GOOD_COMPLEX, path, value), COMPLEX_EXPECT)


@pytest.mark.parametrize(
    "path, value",
    [(("f_pure",), False), (("f_injective", "t=1"), False), (("f_injective", "t=2"), False)],
)
def test_checker_rejects_doctored_hypersurface_report(path, value):
    assert checker.check(doctored(GOOD_HYPERSURFACE, path, value), HYPERSURFACE_EXPECT)


def test_fedder_fpure_matches_known_verdicts():
    assert checker.fedder_fpure("x0^3 + x1^3 + x2^3", 7)
    assert not checker.fedder_fpure("x0^3 + 5*x1^3 + x2^3", 11)
    assert not checker.fedder_fpure("x0^4 + x1^4 + x2^4", 13)


def _generated(name, seed, directory):
    entries = workloads.generate(name, seed, directory)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}
    return entries, files


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first, first_files = _generated(name, 7, tmp_path / "a")
    again, again_files = _generated(name, 7, tmp_path / "b")
    other, other_files = _generated(name, 8, tmp_path / "c")
    strip = lambda files: {k: v for k, v in files.items() if k != "manifest.json"}
    assert strip(first_files) == strip(again_files)
    assert strip(first_files) != strip(other_files)
    # expectations do not depend on the seed
    assert [e["expect"] for e in first] == [e["expect"] for e in other]


def test_metric_tables_match_benchmark_json():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(tracing.LAYER_METRICS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == tracing.LAYER_METRICS[m["name"]]
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, section):
    name = "hypersurface-levels"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == names
    printed = {line.split()[0] for line in lines[1:-1]}
    assert names <= printed


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "complex-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
