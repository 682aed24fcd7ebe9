"""The map scripts whose output the repository commits run end to end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_map(script, cells, out, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "demos" / script), "--cells", str(cells),
                    "--out", str(out), *args], check=True, env=env, capture_output=True,
                   timeout=300)
    return out.read_text()


@pytest.mark.parametrize("script,cells,summary", [
    ("05_convergence_map.py", 2, "- cells: 2; converged: doubling 2, automatic 2, sqrt2 2"),
    ("06_surgery_map.py", 1, "- converged cuts: 2 of 2 run"),
])
def test_map_script_writes_its_summary(tmp_path, script, cells, summary):
    text = _run_map(script, cells, tmp_path / "map.md")
    assert text.startswith("# ")
    assert summary in text


@pytest.mark.parametrize("script,cells,compared", [
    ("05_convergence_map.py", 2, ["automatic outer iterations on the 2 cells",
                                  "doubling outer iterations on the 2 cells"]),
    ("06_surgery_map.py", 1, ["outer iterations on the 2 cuts"]),
])
def test_map_script_compares_with_a_baseline(tmp_path, script, cells, compared):
    # the same commit as its own baseline: every converged run is in both,
    # with the same iterations
    _run_map(script, cells, tmp_path / "base.md")
    text = _run_map(script, cells, tmp_path / "map.md", "--baseline", str(tmp_path / "base.md"))
    assert text.count("converged here but not in the baseline 0, "
                      "in the baseline but not here 0") == len(compared)
    for line in compared:
        assert line in text
    assert text.count("; fewer in 0, more in 0") == len(compared)
    rows = [line for line in text.splitlines() if line.startswith(("| LINEAR", "| RING"))]
    assert len(rows) == cells and all(" converged " in row.split("|")[-2] for row in rows)
