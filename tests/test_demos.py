"""The map scripts whose output the repository commits run end to end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,cells,summary", [
    ("05_convergence_map.py", 2, "- cells: 2; converged: doubling 2, automatic 2, sqrt2 2"),
    ("06_surgery_map.py", 1, "- converged cuts: 2 of 2 run"),
])
def test_map_script_writes_its_summary(tmp_path, script, cells, summary):
    out = tmp_path / "map.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "demos" / script), "--cells", str(cells),
                    "--out", str(out)], check=True, env=env, capture_output=True, timeout=300)
    text = out.read_text()
    assert text.startswith("# ")
    assert summary in text
