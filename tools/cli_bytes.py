"""Stdout hashes of the tvq CLI commands whose bytes must not change.

    python3 tools/cli_bytes.py CHECKOUT [CHECKOUT]

For each checkout, runs every command below as `python -m tvq.cli ...`
with PYTHONPATH set to that checkout's src, and prints the sha256 prefix
of its stdout (and its exit status when that is not 0). Given two
checkouts, it exits 1 when any stdout or exit status differs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = [
    "verify all",
    "verify all --seed 5",
    "braid --distance 4 --compare-baseline",
    "braid --distance 8",
    "compile --distance 8",
    "errors --distances 4,8 --trials 100 --seed 17",
    "errors --distances 8 --trials 40 --seed 1 --format csv",
]


def digest(checkout: Path, command: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "tvq.cli", *command.split()],
        cwd=checkout,
        env=env,
        capture_output=True,
    )
    out = hashlib.sha256(proc.stdout).hexdigest()[:16]
    return out if proc.returncode == 0 else f"{out} (exit {proc.returncode})"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = [Path(a).resolve() for a in argv]
    differ = False
    for command in COMMANDS:
        got = [digest(c, command) for c in checkouts]
        same = len(set(got)) == 1
        differ |= not same
        mark = "" if len(got) == 1 else ("  same" if same else "  DIFFERS")
        print(f"{command:<56} {'  '.join(got)}{mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
