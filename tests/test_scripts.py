"""Smoke test of the scripts in scripts/: each runs to exit code 0,
run_verify.py reports every negative-control mutation as flipped, and its
table is the stdout of `k3cert verify --all`.

They import `spectral` and `cases` entry points directly, so a rename in
src/ that they miss fails here rather than for the next user.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from k3cert import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["find_isometry.py", "--bound", "2"],
    ["run_verify.py"],
])
def test_script_exits_0(argv, capsys):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "UNEXPECTED" not in proc.stdout
    if argv[0] == "run_verify.py":
        # the documented singular-k3 FAIL rows: the CLI exits 1, the script 0
        assert cli.run(["verify", "--all"]) == 1
        assert proc.stdout.startswith(capsys.readouterr().out)
