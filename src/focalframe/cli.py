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
byte-identical files.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 numeric
failure (degeneracy or vertices covering the whole grid). An input error
is a bad flag or spec file (a file that is not UTF-8 JSON included) or an
``--output`` prefix that cannot be written, such as one under a regular
file or one whose ``PREFIX.csv`` is a directory; each prints one
``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .curves import Curve, as_unit_speed
from .errors import (
    BadParameters,
    FocalFrameError,
    InvalidProfile,
    OrderUnsupported,
    OutOfDomain,
    SpecFileError,
)
from .focal import MIN_GRID, focal_curvatures, focal_relations_check
from .frenet import classify_curvatures, curvature_table
from .slant import slant_reports, verify_focal_slants
from .specfile import build_curve, load_curve_spec, samples_spec_dict, save_spec

SCHEMA_VERSION = 2

# Largest --grid-points accepted; every test, script and benchmark stays at or
# below 4096, and far larger grids only exhaust memory.
MAX_GRID = 1 << 16

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_FAILURE = 3

_INPUT_ERRORS = (SpecFileError, BadParameters, InvalidProfile, OutOfDomain, OrderUnsupported)


@dataclass
class RunConfig:
    command: str
    input_path: str
    output_path: str
    grid_points: int = 256
    tolerance: float | None = None
    k: int | None = None
    dim: int | None = None
    step: float | None = None

    def __post_init__(self):
        if self.grid_points < 16:
            raise SpecFileError(f"grid_points must be at least 16, got {self.grid_points}")
        if self.grid_points > MAX_GRID:
            raise SpecFileError(f"grid_points must be at most {MAX_GRID}, got {self.grid_points}")
        if self.command in ("focal", "verify") and self.grid_points < MIN_GRID:
            raise SpecFileError(
                f"{self.command} needs at least {MIN_GRID} grid points, got {self.grid_points}"
            )
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise SpecFileError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if self.step is not None and not 0 < self.step < math.inf:
            raise SpecFileError(f"step must be positive and finite, got {self.step!r}")
        if not Path(self.output_path).name:
            raise SpecFileError(f"output prefix {self.output_path!r} names no file")


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


def _load(config: RunConfig) -> Curve:
    spec = load_curve_spec(config.input_path)
    if config.dim is not None and config.dim != spec.dim:
        raise SpecFileError(f"--dim {config.dim} contradicts spec dim {spec.dim}")
    return build_curve(spec, step=config.step)


def _ks(config: RunConfig, curve: Curve) -> list[int]:
    if config.k is None:
        return list(range(1, curve.dimension + 1))
    if not 1 <= config.k <= curve.dimension:
        raise SpecFileError(f"--k must lie in [1, {curve.dimension}], got {config.k}")
    return [config.k]


def _meta(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "input": config.input_path,
        "grid_points": config.grid_points,
        "version": __version__,
    }


def _cmd_analyze(config: RunConfig, out: Path) -> int:
    curve = _load(config)
    table = curvature_table(curve, curve.grid(config.grid_points))
    dim, d = curve.dimension, curve.dimension
    header = (["s"] + [f"x{i}" for i in range(dim)]
              + [f"kappa_{i}" for i in range(1, d)] + ["speed"])
    rows = zip(table.s, *table.point.T, *table.curvatures.T, table.speed)
    _write_csv(_suffixed(out, ".csv"), header, rows)

    n_ok = int(table.ok.sum())
    payload = _meta(config) | {"rows_ok": n_ok, "rows_total": int(table.s.size)}
    if n_ok >= 8:
        try:
            cl = classify_curvatures(table.curvatures[table.ok],
                                     tol=config.tolerance if config.tolerance else 1e-6)
            payload["classification"] = {
                "is_w_curve": cl.is_w_curve,
                "is_ccr": cl.is_ccr,
                "ratios": [float(r) for r in cl.ratios],
                "curvature_spreads": [float(x) for x in cl.spreads],
            }
        except FocalFrameError as exc:
            payload["classification"] = {"error": str(exc)}
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK if n_ok else EXIT_NUMERIC_FAILURE


def _cmd_focal(config: RunConfig, out: Path) -> int:
    curve = as_unit_speed(_load(config))
    grid = curve.grid(config.grid_points)
    table = focal_curvatures(curve, grid)
    m = curve.dimension - 1
    header = (["s"] + [f"C{i}" for i in range(curve.dimension)]
              + [f"c_{i}" for i in range(1, m + 1)]
              + ["A", "epsilon", "R_m", "is_vertex"])
    rows = zip(table.s, *table.focal_point.T, *table.focal_curvatures.T,
               table.A, table.epsilon, table.R_m, table.is_vertex)
    _write_csv(_suffixed(out, ".csv"), header, rows)

    payload = _meta(config) | {"n_vertices": int(table.is_vertex.sum())}
    try:
        payload["relations"] = focal_relations_check(curve, grid, table=table).to_dict()
        status = EXIT_OK
    except FocalFrameError as exc:
        payload["relations"] = None
        payload["error"] = str(exc)
        status = EXIT_NUMERIC_FAILURE
    _write_json(_suffixed(out, ".json"), payload)
    return status


def _cmd_slant(config: RunConfig, out: Path) -> int:
    curve = _load(config)
    ks = _ks(config, curve)
    grid = curve.grid(config.grid_points)
    reports = slant_reports(curve, ks, grid, config.tolerance)
    payload = _meta(config) | {"reports": [r.to_dict() for r in reports]}
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK


def _cmd_verify(config: RunConfig, out: Path) -> int:
    curve = _load(config)
    reports = verify_focal_slants(curve, _ks(config, curve), curve.grid(config.grid_points),
                                  tol=config.tolerance, focal_tol=config.tolerance)
    if config.k is None:  # every index was tried; report the ones the base curve has
        reports = [r for r in reports if r.base.is_slant]
    all_passed = bool(reports) and all(r.passed for r in reports)
    payload = _meta(config) | {
        "verified_k": [r.k for r in reports],
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    if not reports:
        payload["note"] = "no slant index detected on the base curve; nothing to verify"
    _write_json(_suffixed(out, ".json"), payload)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_synthesize(config: RunConfig, out: Path) -> int:
    spec = load_curve_spec(config.input_path)
    if spec.type != "curvatures":
        raise SpecFileError(f"synthesize needs a curvatures spec, got type {spec.type!r}")
    if config.dim is not None and config.dim != spec.dim:
        raise SpecFileError(f"--dim {config.dim} contradicts spec dim {spec.dim}")
    curve = build_curve(spec, step=config.step)
    save_spec(samples_spec_dict(curve, config.grid_points), _suffixed(out, ".json"))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "focal": _cmd_focal,
    "slant": _cmd_slant,
    "verify": _cmd_verify,
    "synthesize": _cmd_synthesize,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    out = Path(config.output_path)
    try:
        if not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[config.command](config, out)
    except (*_INPUT_ERRORS, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FocalFrameError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage and exiting, so that
    :func:`main` reports them on one line like every other input error."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


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
        p.add_argument("--input", required=True, help="curve spec file (JSON)")
        p.add_argument("--output", required=True, help="output path prefix")
        p.add_argument("--grid-points", type=int, default=256)
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the per-kind detection/classification tolerance")
        p.add_argument("--k", type=int, default=None, help="slant index (default: all)")
        p.add_argument("--dim", type=int, default=None, help="assert the ambient dimension")
        p.add_argument("--step", type=float, default=None,
                       help="integrator step override for synthesized curves")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        config = RunConfig(
            command=args.command,
            input_path=args.input,
            output_path=args.output,
            grid_points=args.grid_points,
            tolerance=args.tolerance,
            k=args.k,
            dim=args.dim,
            step=args.step,
        )
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
