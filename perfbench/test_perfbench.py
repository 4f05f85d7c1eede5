"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._load_package()

import numpy as np  # noqa: E402

import quditshare.channels  # noqa: E402
import quditshare.damping  # noqa: E402
import quditshare.measures  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("runs"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.BUILDERS) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, out_dir):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(workload, 3, 0, trace, scale="tiny", out_dir=out_dir)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_call_counts_repeat(out_dir):
    for workload in run.WORKLOADS:
        counts = []
        for _ in range(2):
            result = run.run_workload(workload, 11, 0, True, scale="tiny", out_dir=out_dir)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(".calls")})
        assert counts[0] == counts[1], workload
        assert counts[0]["linalg.eigvalsh.calls"] > 0, workload


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["per_layer"]:
        name = metric["name"]
        base = name.rsplit(".", 1)[0] if name.endswith((".calls", ".self_s")) else name
        assert base in layers, name
        for moved, names in layers[base]["moves"].items():
            assert moved in end_to_end and set(names) <= set(run.WORKLOADS)


def test_tracer_patches_lookup_namespaces_and_restores_them():
    originals = (np.linalg.svd, quditshare.damping.fef, quditshare.channels.KrausChannel.__init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert quditshare.damping.fef is not originals[1]
        assert np.linalg.svd is not originals[0]
        ch = quditshare.channels.random_channel(2, 2, np.random.default_rng(0))
    finally:
        tr.remove()
    assert (np.linalg.svd, quditshare.damping.fef,
            quditshare.channels.KrausChannel.__init__) == originals
    calls = tr.totals()["calls"]
    assert calls["channels.random_channel"] == 1
    assert calls["channels.KrausChannel.init"] == 1
    assert ch.dim == 2


def test_missing_name_reads_absent(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (
        ("cli.gone", "quditshare.cli", "no_such_function"),
        ("gone.module", "quditshare.no_such_module", "f"),
    ))
    tr = tracer.Tracer()
    tr.install()
    tr.remove()
    assert tr.absent == ["cli.gone", "gone.module"]


def test_oracles_reject_wrong_answers(tmp_path):
    tasks = workloads.build_tasks("certify", 5, str(tmp_path / "c"), "tiny")
    value = tasks[0].collect(tasks[0].run())
    assert tasks[0].check(value) == []
    rc, stdout, text = value
    lines = text.splitlines()
    col = lines[0].split(",").index("lambda_max")
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[col])
    cells = lines[i].split(",")
    cells[col] = repr(float(cells[col]) + 1e-9)
    lines[i] = ",".join(cells)
    tampered = "\n".join(lines) + "\n"
    assert len(tasks[0].check((rc, stdout, tampered))) == 1

    tasks = workloads.build_tasks("negsearch", 5, str(tmp_path / "n"), "tiny")
    best, amps = tasks[0].collect(tasks[0].run())
    assert tasks[0].check((best, amps)) == []
    assert tasks[0].check((best - 1e-3, amps))


def test_measures_oracle_recomputes_phiplus_fidelity(tmp_path):
    tasks = workloads.build_tasks("measures", 5, str(tmp_path / "m"), "tiny")
    task = next(t for t in tasks if t.label.endswith("--input phiplus"))
    rc, stdout, text = task.collect(task.run())
    assert task.check((rc, stdout, text)) == []
    report = json.loads(text)
    report["phiplus_fidelity"] -= 1e-6
    assert len(task.check((rc, stdout, json.dumps(report)))) == 1


def test_fef_hook_counts_unexpected_shapes_without_raising(monkeypatch):
    monkeypatch.setattr(quditshare.measures, "fef", lambda rho, **kw: "not a result")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert quditshare.measures.fef(None) == "not a result"
    finally:
        tr.remove()
    totals = tr.totals()
    assert (totals["fef_seen"], totals["fef_unscored"]) == (0, 1)
    assert totals["calls"]["measures.fef"] == 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
