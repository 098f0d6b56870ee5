import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, argv", [
    # 0.5 a / pi rounds one ulp out of extract's window at this separation
    ("cutoff_scan.py", ["--a", "0.8296057123842422", "--points", "3"]),
    ("route_comparison.py", ["--a", "0.8296057123842422", "--ratios", "0.1"]),
])
def test_script_runs_at_window_edge_separation(script, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
