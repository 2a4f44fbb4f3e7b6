#!/usr/bin/env python3
"""Time CLI start-up: fresh ``python -m focalframe`` children, one per
subcommand on an example spec, beside ``python -c "import numpy"``, the
floor that every subcommand pays.

Prints the median wall time of each child over R rounds, in milliseconds,
and its excess over the floor. Each round runs every child once, in a fixed
order, so that drift of the host spreads over all of them alike. Children
inherit the environment: to compare two trees, run the script once under
each tree's ``src`` on ``PYTHONPATH``; to include the compilation of the
library, as a checkout without cached bytecode pays it, set
``PYTHONDONTWRITEBYTECODE=1`` and remove the tree's ``__pycache__``
directories first.

Usage: python scripts/time_startup.py [--repeat R]
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from write_example_specs import SPECS

COMMANDS = [
    ("analyze", "helix"),
    ("focal", "helix"),
    ("slant", "wcurve5"),
    ("verify", "salkowski"),
    ("synthesize", "varying_curvatures"),
]


def wall_s(argv: list[str]) -> float:
    """Wall time of one child; a failed child stops the script."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        sys.exit(f"{' '.join(argv)}: exit code {proc.returncode}\n{proc.stderr}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds (the median is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, spec in SPECS.items():
            (work / name).write_text(json.dumps(spec))
        children = {'python -c "import numpy"': [sys.executable, "-c", "import numpy"]}
        for command, spec in COMMANDS:
            children[f"{command} {spec}"] = [
                sys.executable, "-m", "focalframe", command, "--input", str(work / f"{spec}.json"),
                "--output", str(work / "out" / command)]
        times = {label: [] for label in children}
        for _ in range(args.repeat):
            for label, argv in children.items():
                times[label].append(wall_s(argv))

    medians = {label: statistics.median(ts) * 1e3 for label, ts in times.items()}
    floor = medians['python -c "import numpy"']
    print(f"{'child':34s} {'median ms':>9s} {'over floor':>10s}")
    for label, ms in medians.items():
        print(f"  {label:32s} {ms:9.1f} {ms - floor:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
