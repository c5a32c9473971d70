"""The benchmark's self-test passes against the program as it stands.

``bench/smoke.py`` runs every workload at its tiniest size, traced and
untraced, and checks that each traced name still exists and each output
check still holds; a renamed function or a broken workload fails it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
