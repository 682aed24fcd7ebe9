"""Tests of the benchmark itself: tiny runs, rejected corruptions, CLI parity.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import UNITS, TraceError, Tracer  # noqa: E402

# grid and cuts of each workload shrunk to a size that runs in seconds
TINY = {
    "grow": {"grid": 8},
    "fine": {"grid": 8},
    "branch": {"grid": 12, "cuts": [(0, 6), (6, 2)]},
}


def tiny_config(workload: str) -> str:
    data = yaml.safe_load((BENCH / "workloads" / f"{workload}.yaml").read_text())
    size = TINY[workload]
    data["grid"]["I"] = data["grid"]["J"] = size["grid"]
    for cut, (sector, b) in zip(data.get("surgery", []), size.get("cuts", [])):
        cut["sector"], cut["b"] = sector, b
    return yaml.safe_dump(data)


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_round(request, tmp_path_factory):
    st = worker.Setup(tiny_config(request.param))
    out = tmp_path_factory.mktemp(request.param)
    return st, worker.run_round(st, 7, out)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(workload, trace, tmp_path):
    result, setup_s = worker.run(workload, tiny_config(workload), seed=5, seconds=0,
                                 trace=trace, t_start=time.monotonic(), out_dir=tmp_path / "f")
    assert setup_s > 0
    assert result["correct"] and result["failed"] == 0
    cfg = worker.Setup(tiny_config(workload)).cfg
    assert result["attempted"] % worker.ops_per_round(cfg) == 0
    spec = benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if not trace:
        names.remove("setup_s")  # added by run.py from the set-up probes
    assert sorted(result["metrics"]) == sorted(names)
    if trace:
        assert result["metrics"]["surgery.calls"]["value"] == (2 if workload == "branch" else 0)
        assert set(UNITS) == set(names)


def test_trace_fails_when_a_wrapped_name_is_gone(monkeypatch):
    import ksurf.amsler
    monkeypatch.delattr(ksurf.amsler, "sweep_sector")
    with pytest.raises(TraceError, match="ksurf.amsler.sweep_sector no longer exists"):
        Tracer("grow")


def test_trace_fails_when_a_required_layer_is_not_called(tmp_path):
    # the grow config makes no surgery calls, which the branch workload requires
    tracer = Tracer("branch")
    st = worker.Setup(tiny_config("grow"))
    tracer.install()
    try:
        with tracer.round():
            r = worker.run_round(st, 1, tmp_path)
    finally:
        tracer.uninstall()
    with pytest.raises(TraceError, match="ksurf.surgery.insert_branch_point"):
        tracer.round_metrics(r["times"]["total_s"])


def test_benchmark_json_names_the_workloads():
    import run
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS) == list(run.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_round_outputs_pass(tiny_round):
    st, r = tiny_round
    assert worker.check_round(st, r) == [None] * worker.ops_per_round(st.cfg)


def test_nan_position_is_rejected(tiny_round):
    st, r = tiny_round
    cx = r["chain"][0]
    s = cx.sectors[1]
    saved = s.positions[3, 3].copy()
    s.positions[3, 3, 0] = np.nan
    try:
        with pytest.raises(checks.CheckFailed, match="non-finite position"):
            worker._cx_ok(cx, st, [])
    finally:
        s.positions[3, 3] = saved


def test_perturbed_normal_is_rejected(tiny_round):
    st, r = tiny_round
    cx = r["chain"][0]
    s = cx.sectors[2]
    saved = s.normals[4, 2].copy()
    n = saved + np.array([0.0, 1e-7, 0.0])
    s.normals[4, 2] = n / np.linalg.norm(n)
    try:
        with pytest.raises(checks.CheckFailed, match="residual"):
            worker._cx_ok(cx, st, [])
    finally:
        s.normals[4, 2] = saved


def test_wrong_branch_valence_is_rejected(tmp_path):
    st = worker.Setup(tiny_config("branch"))
    r = worker.run_round(st, 7, tmp_path)
    cx = r["chain"][-1]
    obj, csv = r["files"][:2]
    branch = {(0, 0, 0): 2 * st.cfg.n}
    branch.update({(c.sector, c.b, c.b): c.m + 3 for c in st.cfg.surgery})
    checks.check_export(cx, obj, csv, branch)

    cut = st.cfg.surgery[0]
    vid = checks.read_csv_nodes(csv)[(cut.sector, cut.b, cut.b)][0] + 1
    lines = Path(obj).read_text().splitlines(keepends=True)
    drop = next(k for k, line in enumerate(lines) if line.startswith("f ")
                and f" {vid}//{vid}" in f" {line[2:]}")
    Path(obj).write_text("".join(lines[:drop] + lines[drop + 1:]))
    with pytest.raises(checks.CheckFailed):
        checks.check_export(cx, obj, csv, branch)
    V, _, F = checks.read_obj(obj)
    with pytest.raises(checks.CheckFailed, match="branch vertex"):
        checks.check_valence(F, V.shape[0], {vid - 1: cut.m + 3})


def _bare_checkout(tmp_path: Path) -> Path:
    """Copy of perfbench with tiny workloads, beside a copy of src."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    for name in TINY:
        (root / "perfbench" / "workloads" / f"{name}.yaml").write_text(tiny_config(name))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def _run_command(root: Path, workload: str = "grow"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def test_command_without_sources_fails(tmp_path):
    proc = _run_command(_bare_checkout(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_command_rejects_a_corrupted_export(tmp_path):
    root = _bare_checkout(tmp_path)
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ok = _run_command(root)
    assert ok.returncode == 0, ok.stderr[-2000:]
    assert json.loads(ok.stdout.splitlines()[-1])["correct"] is True

    io_py = root / "src" / "ksurf" / "io.py"
    text = io_py.read_text()
    assert 'FLOAT_FMT = "%.17g"' in text
    io_py.write_text(text.replace('FLOAT_FMT = "%.17g"', 'FLOAT_FMT = "%.15g"'))
    bad = _run_command(root)
    assert bad.returncode != 0
    last = json.loads(bad.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


@pytest.mark.parametrize("workload,command", [("grow", "generate"), ("branch", "surgery")])
def test_library_path_writes_the_cli_bytes(workload, command, tmp_path):
    text = tiny_config(workload)
    st = worker.Setup(text)
    lib = worker.run_round(st, 3, tmp_path)
    config = tmp_path / "run.yaml"
    config.write_text(text)
    out = tmp_path / "cli" / "surface.obj"
    out.parent.mkdir()
    subprocess.run([sys.executable, "-m", "ksurf.cli", command, "--config", str(config),
                    "--out", str(out), "--quiet"],
                   cwd=tmp_path, env={"PYTHONPATH": str(ROOT / "src")}, check=True,
                   timeout=170)
    for mine, theirs in ((lib["files"][0], out), (lib["files"][1], out.with_suffix(".csv"))):
        assert Path(mine).read_bytes() == theirs.read_bytes()
