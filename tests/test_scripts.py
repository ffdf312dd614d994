"""Smoke test of the scripts in scripts/: each runs to exit code 0, and
run_verify.py reports every negative-control mutation as flipped.

They import `spectral` and `cases` entry points directly, so a rename in
src/ that they miss fails here rather than for the next user.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["find_isometry.py", "--bound", "2"],
    ["run_verify.py"],
])
def test_script_exits_0(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "UNEXPECTED" not in proc.stdout
