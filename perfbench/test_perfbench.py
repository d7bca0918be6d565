"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
                "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs_and_sizes_fixed_across_seeds():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        shapes = {
            tuple(sorted(re.sub(r"plane_a\d", "plane", q["key"])
                         for q in workloads.generate(workload, seed)["queries"]))
            for seed in range(6)
        }
        assert len(shapes) == 1


def _poincare_answer(space: dict, m: int) -> dict:
    poly = reference.rising(reference.pc_poly(space), m)
    return {"kind": "polynomial", "coefficients": {str(e): v for e, v in poly.items()}}


def test_checker_counts_a_corrupted_answer():
    space = workloads.plane(2)
    spaces = {space["name"]: space}
    query = {"key": "poincare_config|plane_a2|12", "fn": "poincare_config",
             "args": [{"space": "plane_a2"}, 12]}
    good = _poincare_answer(space, 12)
    assert reference.Checker(spaces, {}).library(query, good, None) == []
    bad = json.loads(json.dumps(good))
    bad["coefficients"]["15"] += 1
    assert reference.Checker(spaces, {}).library(query, bad, None)
    big = dict(query, key="poincare_config|plane_a2|300", args=[{"space": "plane_a2"}, 300])
    bad_big = _poincare_answer(space, 300)
    bad_big["coefficients"]["450"] -= 1
    assert reference.Checker(spaces, {}).library(big, bad_big, None)
    assert reference.Checker(spaces, {}).library(query, None, "ValueError: boom")


def test_checker_counts_a_digest_mismatch():
    space = workloads.plane(2)
    query = {"key": "k", "fn": "poincare_config", "args": [{"space": "plane_a2"}, 5]}
    answer = _poincare_answer(space, 5)
    checker = reference.Checker({"plane_a2": space}, {"k": reference.digest(answer)})
    assert checker.library(query, answer, None) == []
    checker = reference.Checker({"plane_a2": space}, {"k": "0" * 64})
    assert checker.library(query, answer, None) == ["answer differs from the recorded digest"]


def test_checker_counts_a_wrong_exit_code_and_a_failed_check():
    spec = workloads.generate("cli_session", 1, "smoke")
    checker = reference.Checker(spec["spaces"], {})
    refusal = next(q for q in spec["queries"] if q["expect_exit"] == 5)
    assert checker.cli(refusal, 5, "") == []
    assert checker.cli(refusal, 0, "{}")
    assert checker.cli(refusal, 1, "")
    query = next(q for q in spec["queries"] if q["argv"][:3] == ["universal", "--l", "3"])
    want = reference.universal(3, 6, True)
    doc = {
        "command": "universal",
        "inputs": {},
        "result": {"kind": "bivariate",
                   "coefficients": {f"{i},{j}": v for (i, j), v in want.items()}},
        "checks": [{"name": "evaluates-on-reference-space", "passed": True}],
    }
    assert checker.cli(query, 0, json.dumps(doc)) == []
    assert checker.cli(query, 3, json.dumps(doc))
    doc["checks"][0]["passed"] = False
    assert checker.cli(query, 0, json.dumps(doc))


def test_rendered_polynomials_read_back():
    assert reference.parse_rendered_poly("T^6 + 3T^5 - 2T^4") == {6: 1, 5: 3, 4: -2}
    assert reference.parse_rendered_poly("T^{7} + T^{8}") == {7: 1, 8: 1}
    assert reference.parse_rendered_poly("2 - T") == {0: 2, 1: -1}


def test_self_time_subtracts_children():
    spans = [
        ("charseries.induce_blocks", 0.0, 10.0, -1, 0, 10.5),
        ("combinat.stable_partitions", 1.0, 5.0, 0, 0, 4.5),
        ("combinat.set_partitions", 2.0, 3.0, 1, 0, 1.0),
        ("charseries.induce_blocks", 6.0, 8.0, 0, 0, 2.0),
    ]
    times = tracer.summarize(spans)
    assert times["charseries.self_s"] == pytest.approx(3.5 + 2.0)
    assert times["combinat.self_s"] == pytest.approx(3.0 + 1.0)
    assert times["charseries.induce_blocks_s"] == pytest.approx(10.0)
    assert times["combinat.stable_partitions_s"] == pytest.approx(4.0)


def test_trimmed_mean_drops_the_extremes():
    assert run.trimmed_mean([1.0] * 8 + [100.0, -100.0]) == 1.0
    assert run.trimmed_mean([1.0, 2.0, 3.0]) == 2.0


def test_calibrated_pass_keeps_the_loop_out_of_its_time():
    spec = workloads.generate("strata", 3, "smoke")
    run.write_space_files(spec)
    doc = run.run_pass(spec, "library", False, 120, None, calibrate="loop")
    assert len(doc["calib_s"]) >= 2
    assert doc["wall_s"] == pytest.approx(sum(r["seconds"] for r in doc["results"]))
    assert "calib_s" not in run.run_pass(spec, "library", False, 120, None)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "strata", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
