#!/usr/bin/env python
"""Docs-drift gate: every CLI subcommand must be documented.

The source of truth is the code itself — subcommands are enumerated from
the live argparse parser — so adding a command without documenting it
fails CI with the exact list of what is missing and where we looked.

Each ``repro <subcommand>`` must appear at least once as an invocation
(``repro sweep``, ``python -m repro sweep``, ...) in the docs corpus:
``README.md``, ``DESIGN.md``, and every ``docs/**/*.md``.

Run it from the repo root::

    PYTHONPATH=src python scripts/check_docs_drift.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def docs_corpus() -> dict[Path, str]:
    paths = [REPO / "README.md", REPO / "DESIGN.md"]
    paths += sorted((REPO / "docs").rglob("*.md"))
    return {p.relative_to(REPO): p.read_text(encoding="utf-8")
            for p in paths if p.is_file()}


def cli_subcommands() -> list[str]:
    from repro.cli import _build_parser
    parser = _build_parser()
    for action in parser._subparsers._group_actions:
        return sorted(action.choices)
    raise SystemExit("could not enumerate subparsers from repro.cli")


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    corpus = docs_corpus()
    blob = "\n".join(corpus.values())
    cmds = cli_subcommands()
    # An invocation, not a prose mention: "repro <cmd>" as a command.
    problems = [f"CLI subcommand `repro {cmd}` is not documented anywhere"
                for cmd in cmds
                if not re.search(rf"\brepro\s+{re.escape(cmd)}\b", blob)]

    searched = ", ".join(str(p) for p in corpus)
    if problems:
        print(f"docs drift: {len(problems)} problem(s) "
              f"(searched: {searched})", file=sys.stderr)
        for item in problems:
            print(f"  - {item}", file=sys.stderr)
        return 1
    print(f"docs drift: OK — {len(cmds)} CLI subcommands all documented "
          f"across {len(corpus)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
