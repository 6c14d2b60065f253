"""The demos and the CLI tour print exactly their committed output.

The tour calls `lineint` by name, so each run puts a shim that starts this
checkout's `python -m lineint.cli` at the front of PATH.  Stderr must be
empty, except for the tour's one deliberate error, kept as
cli_tour.stderr.  A changed golden file under tests/golden/ is a change to
what the program prints.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

RUNS = [(p.stem, [sys.executable, p.name])
        for p in sorted(DEMOS.glob("*.py"))]
RUNS.append(("cli_tour", ["sh", "cli_tour.sh"]))


@pytest.fixture(scope="module")
def shim_env(tmp_path_factory):
    bin_dir = tmp_path_factory.mktemp("bin")
    shim = bin_dir / "lineint"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m lineint.cli "$@"\n')
    shim.chmod(0o755)
    pythonpath = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return dict(os.environ,
                PATH=os.pathsep.join([str(bin_dir), os.environ["PATH"]]),
                PYTHONPATH=os.pathsep.join(pythonpath))


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_stdout_matches_golden(shim_env, name, argv):
    r = subprocess.run(argv, cwd=DEMOS, env=shim_env, capture_output=True,
                       timeout=120)
    # Only the tour's deliberate error step writes to stderr.
    err = GOLDEN / f"{name}.stderr"
    assert r.returncode == 0
    assert r.stderr == (err.read_bytes() if err.exists() else b"")
    assert r.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
