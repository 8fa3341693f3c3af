"""The benchmark checks itself: every workload at tiny sizes passes its output
checks untraced and traced, fails them against skewed references, and reports
exactly the metric names that BENCHMARK.json declares."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check():
    # writes only under the git-ignored .perfbench/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout.splitlines(), proc.stdout
