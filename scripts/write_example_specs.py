#!/usr/bin/env python3
"""Emit example curve spec files for the CLI into a target directory.

Usage: python scripts/write_example_specs.py [outdir]
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

SPECS = {
    "circle.json": {
        "type": "circle", "dim": 2, "params": {"r": 2.0},
        "domain": [0.0, 2 * math.pi],
    },
    "helix.json": {
        "type": "helix", "dim": 3, "params": {"a": 2.0, "b": 1.0},
        "domain": [0.0, 2 * math.pi],
    },
    "salkowski.json": {
        "type": "salkowski", "dim": 3, "params": {"n": 0.3},
    },
    "wcurve5.json": {
        "type": "wcurve", "dim": 5,
        "params": {"radii": [1.0, 1.0], "frequencies": [1.0, 2.0], "pitch": 1.0},
        "domain": [0.0, 2 * math.pi],
    },
    # wcurve5 with radii and pitch x100: the same curve in other units
    "wcurve5_x100.json": {
        "type": "wcurve", "dim": 5,
        "params": {"radii": [100.0, 100.0], "frequencies": [1.0, 2.0], "pitch": 100.0},
        "domain": [0.0, 2 * math.pi],
    },
    "wcurve6.json": {
        "type": "wcurve", "dim": 6,
        "params": {"radii": [1.0, 0.8, 0.6], "frequencies": [1.0, 2.0, 3.0]},
        "domain": [0.0, 2 * math.pi],
    },
    "wcurve7.json": {
        "type": "wcurve", "dim": 7,
        "params": {"radii": [1.0, 0.8, 0.6], "frequencies": [1.0, 2.0, 3.0], "pitch": 1.0},
        "domain": [0.0, 2 * math.pi],
    },
    "constant_curvatures.json": {
        "type": "curvatures", "dim": 3, "params": {},
        "domain": [0.0, 10.0],
        "rows": [[float(s), 0.4, 0.2] for s in np.linspace(0.0, 10.0, 128)],
    },
    "varying_curvatures.json": {
        "type": "curvatures", "dim": 3, "params": {},
        "domain": [0.0, 10.0],
        "rows": [[float(s), 1.0 + 0.2 * math.sin(s), 0.5 + 0.1 * math.cos(s)]
                 for s in np.linspace(0.0, 10.0, 128)],
    },
}


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("example_specs")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec in SPECS.items():
        (outdir / name).write_text(json.dumps(spec, indent=2) + "\n")
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
