"""The benchmark's self-test, run as part of the test suite.

bench/selftest.py checks the benchmark's exact Fraction oracles against real
command line output, claimed precision included, and against corrupted
copies of it, so a wrong coefficient or an inflated precision fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
