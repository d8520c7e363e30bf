"""Output hashes of the tvq CLI commands whose bytes must not change.

    python3 tools/cli_bytes.py CHECKOUT [CHECKOUT]

For each checkout, runs every command below as `python -m tvq.cli ...`
with PYTHONPATH set to that checkout's src, and prints the sha256 prefix
of its output (and its exit status when that is not 0). Given two
checkouts, it exits 1 when any output or exit status differs.

A command runs in a new empty working directory. One made of several
CLI calls joined by " ; " (a `lattice build --out` and the `ground-dim`
that reads the file) runs them there in order, and stops at the first
that fails. Its hash covers all their stdout, then the name and bytes
of each file they left in the working directory, in name order, so a
written circuit or lattice file is compared byte for byte. Output
paths are relative, so the reports name them the same way in every
checkout.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "verify all",
    "verify all --seed 5",
    # fails at this tolerance, so it prints the measured residuals with exit 1
    "verify fusion --tol 1e-16",
    "braid --distance 4 --compare-baseline",
    "braid --distance 8",
    "compile --distance 8",
    "compile --distance 16 --out circ.json",
    "braid --distance 8 --export-circuit circ.json",
    "errors --distances 4,8 --trials 100 --seed 17",
    "errors --distances 8 --trials 40 --seed 1 --format csv",
    # 175 valid configs, every one a seed, in one block
    "lattice build torus --lx 2 --ly 2 --out lat.json ; ground-dim lat.json",
    # 106250 valid configs: 24 seeds, one per block
    "lattice build torus --lx 3 --ly 3 --out lat.json ; ground-dim lat.json",
    # 2250 valid configs: a spread of 24 seeds, in one block
    "lattice build patch --rows 3 --cols 3 --punctures 0,0 --out lat.json ; ground-dim lat.json",
    # 29375 valid configs: 24 seeds in blocks of 2
    "lattice build patch --rows 3 --cols 4 --punctures 0,0;2,0 --out lat.json ; ground-dim lat.json",
]


def digest(checkout: Path, command: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    stdout, status = b"", 0
    with tempfile.TemporaryDirectory() as cwd:
        for call in command.split(" ; "):
            proc = subprocess.run(
                [sys.executable, "-m", "tvq.cli", *call.split()],
                cwd=cwd,
                env=env,
                capture_output=True,
            )
            stdout += proc.stdout
            status = proc.returncode
            if status:
                break
        h = hashlib.sha256(stdout)
        for path in sorted(Path(cwd).iterdir()):
            h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    out = h.hexdigest()[:16]
    return out if status == 0 else f"{out} (exit {status})"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = [Path(a).resolve() for a in argv]
    differ = False
    width = max(len(c) for c in COMMANDS)
    for command in COMMANDS:
        got = [digest(c, command) for c in checkouts]
        same = len(set(got)) == 1
        differ |= not same
        mark = "" if len(got) == 1 else ("  same" if same else "  DIFFERS")
        print(f"{command:<{width}}  {'  '.join(got)}{mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
