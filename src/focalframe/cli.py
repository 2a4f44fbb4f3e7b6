"""Command-line front end.

Five subcommands over curve spec files (see :mod:`focalframe.specfile`):

* ``analyze``     curvature/speed table as CSV plus a JSON classification
* ``focal``       focal curve and focal data as CSV plus the frame-relation report
* ``slant``       slant verdicts for one or all k, as JSON
* ``verify``      focal slant-helix verification, pass/fail JSON report
* ``synthesize``  integrate a curvatures spec into a samples spec

``--output`` is a path prefix: commands write ``PREFIX.csv`` and/or
``PREFIX.json``. Outputs are deterministic: fixed summation orders and
17-significant-digit CSV floats make identical inputs produce
byte-identical files. Each command imports the library modules it runs
when it runs, so that a command loads no others.

``--tolerance`` belongs to analyze, slant and verify (in verify it is the
tolerance of both the base and the focal verdicts), and ``--k`` to slant
and verify; ``--step`` applies to curvatures specs only. Any other use of
them is an input error. The ambient dimension is the spec's ``dim``; no
flag restates it. Each flag value is checked once, by its argparse
``type=`` as it is parsed. :func:`run` takes the parsed namespace and
makes the two checks that read more than one argument, an output prefix
that names a file and the minimum grid of focal and verify, before it
creates any directory.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 numeric
failure. The two failure codes are the two bases of :mod:`focalframe.errors`.
An :class:`InputError` is a bad flag or spec file (a file that is not
UTF-8 JSON included). An ``--output`` prefix that cannot be written, such
as one under a regular file or one whose ``PREFIX.csv`` is a directory,
raises an ``OSError``, which is an input error too. Each prints one
``error:`` line. A :class:`NumericFailure` is a valid input that the
computation cannot carry through: a degenerate row, vertices covering the
whole grid, or a derivative order beyond a curve's method, such as order
6 of a sampled curve (an E6 ``samples`` spec or the sampled focal curve of
an E6 curve). It prints one ``numeric failure:`` line unless the command
writes it into its JSON: ``analyze`` as ``rows_ok: 0``, ``focal`` as an
``error`` beside its table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import InputError, NumericFailure, SpecFileError
from .specfile import build_curve, load_curve_spec, samples_spec_dict, save_spec

if TYPE_CHECKING:
    from .curves import Curve

SCHEMA_VERSION = 2

# Largest --grid-points accepted; every test, script and benchmark stays at or
# below 4096, and far larger grids only exhaust memory.
MAX_GRID = 1 << 16

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_FAILURE = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _suffixed(prefix: Path, suffix: str) -> Path:
    """``PREFIX`` + ``suffix``; unlike ``Path.with_suffix`` it keeps a dot
    already in the prefix's last part (``out/step0.5`` -> ``out/step0.5.json``)."""
    return prefix.with_name(prefix.name + suffix)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(args: argparse.Namespace, spec_type: str | None = None) -> Curve:
    spec = load_curve_spec(args.input)
    if spec_type is not None and spec.type != spec_type:
        raise SpecFileError(f"{args.command} needs a {spec_type} spec, got type {spec.type!r}")
    return build_curve(spec, step=args.step)


def _ks(args: argparse.Namespace, curve: Curve) -> list[int]:
    if args.k is None:
        return list(range(1, curve.dimension + 1))
    if not 1 <= args.k <= curve.dimension:
        raise InputError(f"--k must lie in [1, {curve.dimension}], got {args.k}")
    return [args.k]


def _meta(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "input": args.input,
        "grid_points": args.grid_points,
        "version": __version__,
    }


def _cmd_analyze(args: argparse.Namespace, out: Path) -> int:
    from .frenet import DEFAULT_CLASSIFY_TOL, classify_curvatures, curvature_table

    curve = _load(args)
    table = curvature_table(curve, curve.grid(args.grid_points))
    dim, d = curve.dimension, curve.dimension
    header = (["s"] + [f"x{i}" for i in range(dim)]
              + [f"kappa_{i}" for i in range(1, d)] + ["speed"])
    rows = zip(table.s, *table.point.T, *table.curvatures.T, table.speed)
    _write_csv(_suffixed(out, ".csv"), header, rows)

    n_ok = int(table.ok.sum())
    payload = _meta(args) | {"rows_ok": n_ok, "rows_total": int(table.s.size)}
    if n_ok >= 8:
        try:
            cl = classify_curvatures(table.curvatures[table.ok],
                                     tol=args.tolerance or DEFAULT_CLASSIFY_TOL)
            payload["classification"] = {
                "is_w_curve": cl.is_w_curve,
                "is_ccr": cl.is_ccr,
                "ratios": [float(r) for r in cl.ratios],
                "curvature_spreads": [float(x) for x in cl.spreads],
            }
        except NumericFailure as exc:
            payload["classification"] = {"error": str(exc)}
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK if n_ok else EXIT_NUMERIC_FAILURE


def _cmd_focal(args: argparse.Namespace, out: Path) -> int:
    from .arclength import as_unit_speed
    from .focal import focal_curvatures, focal_relations_check

    curve = as_unit_speed(_load(args))
    grid = curve.grid(args.grid_points)
    table = focal_curvatures(curve, grid)
    m = curve.dimension - 1
    header = (["s"] + [f"C{i}" for i in range(curve.dimension)]
              + [f"c_{i}" for i in range(1, m + 1)]
              + ["A", "epsilon", "R_m", "is_vertex"])
    rows = zip(table.s, *table.focal_point.T, *table.focal_curvatures.T,
               table.A, table.epsilon, table.R_m, table.is_vertex)
    _write_csv(_suffixed(out, ".csv"), header, rows)

    payload = _meta(args) | {"n_vertices": int(table.is_vertex.sum())}
    try:
        payload["relations"] = focal_relations_check(curve, grid, table=table).to_dict()
        status = EXIT_OK
    except NumericFailure as exc:
        payload["relations"] = None
        payload["error"] = str(exc)
        status = EXIT_NUMERIC_FAILURE
    _write_json(_suffixed(out, ".json"), payload)
    return status


def _cmd_slant(args: argparse.Namespace, out: Path) -> int:
    from .slant import slant_reports

    curve = _load(args)
    ks = _ks(args, curve)
    grid = curve.grid(args.grid_points)
    reports = slant_reports(curve, ks, grid, args.tolerance)
    payload = _meta(args) | {"reports": [r.to_dict() for r in reports]}
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: Path) -> int:
    from .slant import verify_focal_slants

    curve = _load(args)
    reports = verify_focal_slants(curve, _ks(args, curve), curve.grid(args.grid_points),
                                  args.tolerance)
    if args.k is None:  # every index was tried; report the ones the base curve has
        reports = [r for r in reports if r.base.is_slant]
    all_passed = bool(reports) and all(r.passed for r in reports)
    payload = _meta(args) | {
        "verified_k": [r.k for r in reports],
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    if not reports:
        payload["note"] = "no slant index detected on the base curve; nothing to verify"
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_synthesize(args: argparse.Namespace, out: Path) -> int:
    curve = _load(args, "curvatures")
    save_spec(samples_spec_dict(curve, args.grid_points), _suffixed(out, ".json"))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "focal": _cmd_focal,
    "slant": _cmd_slant,
    "verify": _cmd_verify,
    "synthesize": _cmd_synthesize,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    out = Path(args.output)
    try:
        if args.command in ("focal", "verify"):
            from .focal import MIN_GRID

            if args.grid_points < MIN_GRID:
                raise InputError(f"{args.command} needs --grid-points of at least "
                                 f"{MIN_GRID}, got {args.grid_points}")
        if not out.name:
            raise InputError(f"output prefix {args.output!r} names no file")
        if not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out)
    except (InputError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting, so that
    :func:`main` reports them on one line like every other input error."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _checked(convert, ok, rule: str):
    """An argparse ``type=`` that converts with ``convert`` and refuses a
    value failing ``ok``; a text ``convert`` refuses is reported under
    ``convert``'s name, as argparse reports the bare type."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_GRID_POINTS = _checked(int, lambda n: 16 <= n <= MAX_GRID, f"in [16, {MAX_GRID}]")
_POSITIVE = _checked(float, lambda x: 0 < x < math.inf, "positive and finite")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="focalframe",
        description="Frenet frames, focal curves and slant-helix verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("analyze", "curvature table (CSV) and classification (JSON)"),
        ("focal", "focal curve, focal curvatures and frame relations"),
        ("slant", "slant verdicts for one or all frame indices"),
        ("verify", "verify the focal slant-index migration"),
        ("synthesize", "integrate a curvatures spec into a samples spec"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(tolerance=None, k=None)  # every command reads the same names
        p.add_argument("--input", required=True, help="curve spec file (JSON)")
        p.add_argument("--output", required=True, help="output path prefix")
        p.add_argument("--grid-points", type=_GRID_POINTS, default=256)
        if name in ("analyze", "slant", "verify"):
            p.add_argument("--tolerance", type=_POSITIVE,
                           help="override the per-kind detection/classification tolerance")
        if name in ("slant", "verify"):
            p.add_argument("--k", type=int, help="slant index (default: all)")
        p.add_argument("--step", type=_POSITIVE,
                       help="upper bound on the integrator step of a curvatures spec "
                            "(default: the domain length / 1024)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
