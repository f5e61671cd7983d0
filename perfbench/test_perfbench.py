"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

CLI = run.import_program(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = jobs.generate(workload, 7, 60)
    assert first == jobs.generate(workload, 7, 60)
    assert first != jobs.generate(workload, 8, 60)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end_at_tiny_size(workload, trace):
    result, lines = run.measure(CLI, workload, 3, 0, trace, min_jobs=3, trace_jobs=3)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert any(line.startswith("fingerprint ") for line in lines)


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "prodcong" or n.startswith("prodcong.")]
    return {(mod.__name__, name): value for mod in mods for name, value in vars(mod).items()
            if callable(value)}


def test_wrappers_keep_report_bytes_and_are_removed():
    job_list = jobs.generate("growth-represent", 5, 4) + jobs.generate("scan-sweep", 5, 4)
    before = _bindings()
    render = sys.modules["prodcong.report"].Report.render
    plain = [run.run_job(CLI, job.argv)[:2] for job in job_list]
    tracer = Tracer()
    with tracer:
        assert sys.modules["prodcong.growth"].is_subgroup is not before["prodcong.growth", "is_subgroup"]
        traced = [run.run_job(CLI, job.argv)[:2] for job in job_list]
    assert traced == plain
    assert _bindings() == before
    assert sys.modules["prodcong.report"].Report.render is render
    names = {span[0] for span in tracer.spans}
    assert "growth.power_set_sequence.witnessed" in names and "cli.main" in names


def test_every_traced_function_exists():
    for module, attr, _, _ in TRACED:
        owner = sys.modules[f"prodcong.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_checks_reject_a_tampered_witness():
    job = jobs.generate("solve-witness", 1, 40)
    job = next(j for j in job if run.run_job(CLI, j.argv)[0] == 0)
    code, out, _, _ = run.run_job(CLI, job.argv)
    assert checks.check(job.argv, code, out) == []
    doc = json.loads(out)
    w = doc["rows"][0]["witness"].split(",")
    w[0] = str(int(w[0]) + 1)
    doc["rows"][0]["witness"] = ",".join(w)
    assert checks.check(job.argv, code, json.dumps(doc))
    assert checks.check(job.argv, 2, out)


def test_exact_cutoffs_use_integer_roots():
    assert checks.exact_floor_power(1024, "0.3") == 8
    assert checks.exact_floor_power(64, "0.5") == 8
    assert checks.exact_floor_power(1000, "0.25") == 5


def test_predictions_name_declared_metrics():
    table = json.loads((Path(__file__).parent / "predictions.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"fail_ratio"}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for row in table["predictions"]:
        assert set(row["layer"]) <= layer
        assert set(row["moves"]) <= e2e
        assert set(row["workloads"]) <= workloads | {"none"}
