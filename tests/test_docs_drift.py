"""The docs-drift gate itself, run as a test so `pytest` is the one gate.

CI also runs ``scripts/check_docs_drift.py`` standalone; this test keeps
the same check inside the tier-1 suite and pins the script's contract
(exit 0 when docs are complete, exit 1 naming each missing item).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docs_drift.py"


def run_checker(extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(extra_env or {})
    return subprocess.run([sys.executable, str(SCRIPT)], cwd=REPO,
                          capture_output=True, text=True, env=env)


def test_docs_cover_every_subcommand_and_route():
    proc = run_checker()
    assert proc.returncode == 0, (
        f"docs drift detected:\n{proc.stderr}{proc.stdout}")
    assert "OK" in proc.stdout


def test_checker_enumerates_from_live_code():
    """The gate reads the live parser, not a hardcoded list."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import check_docs_drift as drift
    finally:
        sys.path.pop(0)
    cmds = drift.cli_subcommands()
    assert "sweep" in cmds and "validate" in cmds and "explore" in cmds
    assert "serve" not in cmds
