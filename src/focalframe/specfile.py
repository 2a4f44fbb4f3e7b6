"""Curve specification files: the JSON format the CLI consumes and emits.

A spec is an object with fields ``type``, ``dim``, ``params``, ``domain``
and, for the two data-carrying types, ``rows``:

* ``circle``     params ``{"r": ...}``
* ``helix``      params ``{"a": ..., "b": ...}``
* ``wcurve``     params ``{"radii": [...], "frequencies": [...], "pitch": ...}``
* ``salkowski``  params ``{"n": ...}``
* ``samples``    rows ``[[t, x0, ..., x_{dim-1}], ...]``
* ``curvatures`` rows ``[[s, k1, ..., k_m], ...]`` (m = dim - 1)

Unknown top-level fields and unknown params are rejected, not ignored:
a typo in a tolerance-bearing input should fail loudly. A ``domain``
given beside ``rows`` must match their first and last parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import (
    _DOMAIN_SLACK,
    Curve,
    CurvatureProfile,
    eval_derivatives,
    make_circle,
    make_helix,
    make_salkowski,
    make_wcurve,
    sampled_curve,
    synthesize_from_curvatures,
)
from .errors import SpecFileError

CURVE_TYPES = ("circle", "helix", "wcurve", "salkowski", "samples", "curvatures")
_TOP_FIELDS = {"type", "dim", "params", "domain", "rows"}
_PARAM_FIELDS = {
    "circle": {"r"},
    "helix": {"a", "b"},
    "wcurve": {"radii", "frequencies", "pitch"},
    "salkowski": {"n"},
    "samples": set(),
    "curvatures": {"step"},
}


@dataclass(frozen=True)
class CurveSpec:
    type: str
    dim: int
    params: dict = field(default_factory=dict)
    domain: tuple[float, float] | None = None
    rows: list | None = None


def parse_curve_spec(raw) -> CurveSpec:
    """Validate a decoded JSON object into a CurveSpec."""
    if not isinstance(raw, dict):
        raise SpecFileError(f"spec must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        raise SpecFileError(f"unknown spec fields: {sorted(unknown)}")
    ctype = raw.get("type")
    if ctype not in CURVE_TYPES:
        raise SpecFileError(f"type must be one of {CURVE_TYPES}, got {ctype!r}")
    dim = raw.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, (int, float)):
        raise SpecFileError("spec needs an integer 'dim'")
    if isinstance(dim, float) and not dim.is_integer():
        raise SpecFileError(f"'dim' must be an integer, got {dim!r}")
    dim = int(dim)

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SpecFileError("'params' must be an object")
    bad = set(params) - _PARAM_FIELDS[ctype]
    if bad:
        raise SpecFileError(f"unknown params for type {ctype!r}: {sorted(bad)}")

    domain = raw.get("domain")
    if domain is not None:
        if (not isinstance(domain, (list, tuple)) or len(domain) != 2):
            raise SpecFileError("'domain' must be [s_min, s_max]")
        try:
            domain = (float(domain[0]), float(domain[1]))
        except (TypeError, ValueError):
            raise SpecFileError(f"'domain' entries must be numbers, got {domain!r}") from None

    rows = raw.get("rows")
    if ctype in ("samples", "curvatures"):
        if not isinstance(rows, list) or not rows:
            raise SpecFileError(f"type {ctype!r} needs a non-empty 'rows' list")
    elif rows is not None:
        raise SpecFileError(f"type {ctype!r} does not take 'rows'")
    return CurveSpec(ctype, dim, dict(params), domain, rows)


def load_curve_spec(path) -> CurveSpec:
    p = Path(path)
    if not p.is_file():
        raise SpecFileError(f"no such spec file: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"{p}: invalid JSON: {exc}") from exc
    return parse_curve_spec(raw)


@np.errstate(over="raise", divide="raise", invalid="raise")
def build_curve(spec: CurveSpec, step: float | None = None) -> Curve:
    """Instantiate the curve a spec describes.

    For ``curvatures`` specs the curve is synthesized from a spline profile
    through the rows, starting at the origin with the standard frame;
    ``step`` (or params.step) overrides the integrator's step size. Values
    that overflow or go non-finite while building, and a ``dim`` that is
    not the dimension of the curve built, raise SpecFileError.
    """
    curve = _instantiate(spec, step)
    if curve.dimension != spec.dim:
        raise SpecFileError(f"spec dim {spec.dim} contradicts the {curve.dimension}-dimensional "
                            f"{spec.type} it describes")
    return curve


def _instantiate(spec: CurveSpec, step: float | None) -> Curve:
    try:
        if spec.type == "circle":
            return make_circle(float(spec.params["r"]), spec.domain or (0.0, 2.0 * np.pi))
        if spec.type == "helix":
            return make_helix(float(spec.params["a"]), float(spec.params["b"]),
                              spec.domain or (0.0, 2.0 * np.pi))
        if spec.type == "wcurve":
            return make_wcurve(
                [float(r) for r in spec.params["radii"]],
                [float(w) for w in spec.params["frequencies"]],
                float(spec.params.get("pitch", 0.0)),
                dim=spec.dim,
                domain=spec.domain or (0.0, 2.0 * np.pi),
            )
        if spec.type == "salkowski":
            return make_salkowski(float(spec.params["n"]), spec.domain)
        if spec.type == "samples":
            rows = _rows(spec, spec.dim + 1, f"samples rows must be (t, {spec.dim} coordinates)")
            return sampled_curve(rows[:, 0], rows[:, 1:], label="samples spec")
        rows = _rows(spec, spec.dim, f"curvature rows must be (s, {spec.dim - 1} curvatures)")
        profile = CurvatureProfile.from_samples(rows[:, 0], rows[:, 1:])
        if step is None and "step" in spec.params:
            step = float(spec.params["step"])
        return synthesize_from_curvatures(profile, spec.dim, step=step)
    except KeyError as exc:
        raise SpecFileError(f"type {spec.type!r} is missing param {exc.args[0]!r}") from exc
    except (TypeError, ValueError, FloatingPointError) as exc:
        raise SpecFileError(f"bad value in spec params: {exc}") from exc


def _rows(spec: CurveSpec, width: int, layout: str) -> np.ndarray:
    """The spec's rows as an (N, width) array; a given domain must span their
    first column within the evaluators' domain slack."""
    rows = np.asarray(spec.rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != width or width < 1:
        raise SpecFileError(f"{layout}; got shape {rows.shape}")
    ends = rows[[0, -1], 0]
    slack = _DOMAIN_SLACK * np.maximum(1.0, np.abs(ends))
    if spec.domain is not None and not np.all(np.abs(np.subtract(spec.domain, ends)) <= slack):
        raise SpecFileError(f"domain {list(spec.domain)} contradicts rows spanning "
                            f"{ends.tolist()}")
    return rows


def samples_spec_dict(curve: Curve, n_rows: int) -> dict:
    """Serialize a curve as a samples-type spec over a uniform grid."""
    ts = curve.grid(int(n_rows))
    points = eval_derivatives(curve, ts, 0)[:, 0]
    rows = np.column_stack([ts, points]).tolist()
    return {
        "type": "samples",
        "dim": curve.dimension,
        "params": {},
        "domain": [curve.domain[0], curve.domain[1]],
        "rows": rows,
    }


def save_spec(spec_dict: dict, path) -> None:
    Path(path).write_text(json.dumps(spec_dict, indent=2, sort_keys=True) + "\n")
