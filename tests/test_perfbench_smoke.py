"""The benchmark harness still runs on the package: its smoke test in a child process.

perfbench wraps the package's public functions and constructors and reads
their arguments, so a refactor of the package can break it without any
other test noticing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    # the harness reports the scipy version, so it cannot start without scipy
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: all checks passed" in proc.stdout
