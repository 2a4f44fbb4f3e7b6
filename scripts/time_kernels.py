#!/usr/bin/env python3
"""Time the two Frenet-pass kernels, stacked Gram-Schmidt and the analytic
(trigonometric) curve evaluator, arclength inversion, the reads that a
curve's kept pass serves, and the row access of focal tables.

Prints the timeit minimum, in microseconds, of ``linalg.gram_schmidt_rows``
on seeded random stacks at grid shapes (N, k, dim), of the evaluator of
a W-curve (a sum of circles, plus an axis in odd dimension) at E3, E5 and
E8 over 384 rows at the order a Frenet pass asks for (the ambient
dimension), of the Newton inversion of the length table that
``reparam_to_arclength`` builds, for a Salkowski curve (n = 0.3), an
ellipse arc and an off-unit helix at 96 and 256 evenly spaced arclengths,
of three reads of the kept pass of an arclength version at 96 rows: a
repeated ``focal_curvatures`` on the same grid (a lookup of the pass and
a recomputed recursion), a scalar ``osculating_center_oracle`` call at
one of its rows and one at a parameter between two rows (a miss, which
solves its own system), for one
curve of each family of the benchmark's ``arclength-focal`` workload, and
of slicing the interior rows ``[3:-3]`` of a focal table and iterating
that slice row by row, as the benchmark's focal checks do, for a 256-row
E5 W-curve table and a 96-row Salkowski table.
To compare two trees, run it once under each tree's ``src`` on
``PYTHONPATH``.

Each timing is the minimum over R repeats of the mean of NUMBER calls.

Usage: python scripts/time_kernels.py [--repeat R]
"""

import argparse
import math
import timeit

import numpy as np

from focalframe.arclength import _length_table, reparam_to_arclength
from focalframe.curves import (
    TrigCoordinate,
    curve_from_coordinates,
    make_ellipse,
    make_helix,
    make_salkowski,
    make_wcurve,
)
from focalframe.focal import focal_curvatures, osculating_center_oracle
from focalframe.linalg import gram_schmidt_rows

GS_SHAPES = [(120, 3, 3), (248, 5, 5), (384, 3, 3), (384, 8, 8), (256, 8, 8), (1, 5, 5)]
TRIG_DIMS = [3, 5, 8]
TRIG_ROWS = 384
INVERSION_CURVES = {
    "Salkowski n=0.3": lambda: make_salkowski(0.3),
    "ellipse arc": lambda: make_ellipse(2.0, 1.2, domain=(0.25, 1.35)),
    "helix (1.3, 0.7)": lambda: make_helix(1.3, 0.7),
}
INVERSION_POINTS = [96, 256]
KEPT_CURVES = {
    "Salkowski n=0.3": lambda: make_salkowski(0.3),
    "helix (1.3, 0.7)": lambda: make_helix(1.3, 0.7),
    "ellipse arc": lambda: make_ellipse(2.0, 1.2, domain=(0.25, 1.35)),
    "elliptical helix": lambda: curve_from_coordinates(
        (TrigCoordinate(terms=((1.0, 1.0, 0.5 * math.pi),)),
         TrigCoordinate(terms=((0.93, 1.0, 0.0),)), TrigCoordinate(slope=1.0)),
        (0.0, 2.0 * math.pi)),
    "W-curve E5": lambda: make_wcurve([0.8, 0.6], [1.0, 2.1], pitch=0.8, dim=5),
    "W-curve E4": lambda: make_wcurve([0.8, 0.6], [1.0, 2.1], dim=4),
}
KEPT_ROWS = 96
FOCAL_ROW_TABLES = {
    "W-curve E5, 256 rows": (lambda: make_wcurve([0.8, 0.6], [1.0, 2.1], pitch=0.8, dim=5), 256),
    "Salkowski n=0.3, 96 rows": (lambda: make_salkowski(0.3), 96),
}
NUMBER = 200


def best_us(fn, repeat: int) -> float:
    """Minimum over ``repeat`` runs of the mean time of one call, in us."""
    return min(timeit.repeat(fn, repeat=repeat, number=NUMBER)) / NUMBER * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats (minimum is kept)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be positive")

    rng = np.random.default_rng(0)
    print("gram_schmidt_rows            us")
    for shape in GS_SHAPES:
        stack = rng.normal(size=shape)
        us = best_us(lambda: gram_schmidt_rows(stack), args.repeat)
        print(f"  {str(shape):24s} {us:8.1f}")

    print("trig evaluator (384 rows)    us")
    for dim in TRIG_DIMS:
        p = dim // 2
        curve = make_wcurve([0.5**j for j in range(p)], range(1, p + 1), pitch=dim % 2)
        t = curve.grid(TRIG_ROWS)
        us = best_us(lambda: curve.evaluator(t, dim), args.repeat)
        print(f"  E{dim}, order {dim:<15d} {us:8.1f}")

    print("arclength inversion          us")
    for name, build in INVERSION_CURVES.items():
        curve = build()
        amap = _length_table(curve, *curve.domain)
        for n in INVERSION_POINTS:
            s = np.linspace(0.0, amap.total, n)
            us = best_us(lambda: amap.invert(s), args.repeat)
            print(f"  {name + ', ' + str(n):24s} {us:8.1f}")

    print(f"kept-pass reads ({KEPT_ROWS} rows)    recursion  oracle hit  off-grid  us")
    for name, build in KEPT_CURVES.items():
        unit = reparam_to_arclength(build())
        grid = unit.grid(KEPT_ROWS)
        t = float(focal_curvatures(unit, grid).s[KEPT_ROWS // 2])
        off = 0.5 * (t + float(grid[KEPT_ROWS // 2 + 1]))
        osculating_center_oracle(unit, t)
        table_us = best_us(lambda: focal_curvatures(unit, grid), args.repeat)
        hit_us = best_us(lambda: osculating_center_oracle(unit, t), args.repeat)
        off_us = best_us(lambda: osculating_center_oracle(unit, off), args.repeat)
        print(f"  {name:24s} {table_us:11.1f} {hit_us:11.2f} {off_us:9.1f}")

    print("focal rows                   slice [3:-3]  iterate it  us")
    for name, (build, rows) in FOCAL_ROW_TABLES.items():
        unit = reparam_to_arclength(build())
        table = focal_curvatures(unit, unit.grid(rows))
        interior = table[3:-3]
        slice_us = best_us(lambda: table[3:-3], args.repeat)
        iter_us = best_us(lambda: list(interior), args.repeat)
        print(f"  {name:24s} {slice_us:12.1f} {iter_us:11.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
