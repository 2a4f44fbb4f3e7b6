#!/usr/bin/env python3
"""Survey slant verdicts and focal-index migration across the builtin families.

For every curve and every admissible frame index k this prints the slant
verdict, and for each detected slant index verifies that the focal curve
is slant at the mirrored index with the same axis. A compact way to watch
the index map k -> m - k + 2 (with 1 and m+1 swapping) act on real data.

Usage: python scripts/run_slant_survey.py [--grid-points N]
"""

import argparse
import sys

import focalframe as ff


def survey(label, curve, grid_points):
    m = curve.dimension - 1
    grid = curve.grid(grid_points)
    print(f"\n{label}  (ambient dimension {m + 1})")
    detected = []
    for rep in ff.slant_reports(curve, range(1, m + 2), grid):
        tag = "slant" if rep.is_slant else ("perpendicular" if rep.excluded_perpendicular else "no")
        print(f"  k={rep.k}: {tag:13s} cos={rep.cos_theta: .6f} deviation={rep.deviation:.2e}")
        if rep.is_slant:
            detected.append(rep.k)
    for rep in ff.verify_focal_slants(curve, detected, grid):
        state = "ok" if rep.passed else "FAILED"
        print(f"  focal: k={rep.k} -> k'={rep.k_prime} {state} "
              f"(deviation {rep.focal.deviation:.2e}, axis angle {rep.axis_angle:.2e})")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid-points", type=int, default=256)
    args = parser.parse_args()

    curves = [
        ("helix a=2 b=1", ff.make_helix(2.0, 1.0)),
        ("salkowski n=0.3", ff.make_salkowski(0.3)),
        ("salkowski n=0.2", ff.make_salkowski(0.2)),
        ("wcurve E5 pitch=1", ff.make_wcurve([1.0, 1.0], [1.0, 2.0], pitch=1.0, dim=5)),
        ("random seed=42", ff.random_trig_curve(3, seed=42)),
    ]
    for label, curve in curves:
        survey(label, curve, args.grid_points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
