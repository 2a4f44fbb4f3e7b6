import collections
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalframe
from focalframe import cli, errors
from focalframe.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_FAILURE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from focalframe.errors import SpecFileError
from focalframe.specfile import (
    CURVE_TYPES,
    build_curve,
    load_curve_spec,
    parse_curve_spec,
    samples_spec_dict,
)
from reference_kernels import EXAMPLE_SPECS


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def helix_spec(tmp_path):
    return write_spec(tmp_path, "helix.json", {
        "type": "helix", "dim": 3, "params": {"a": 2.0, "b": 1.0},
        "domain": [0.0, 2 * math.pi],
    })


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


# ------------------------------------------------------------------ spec parsing

def test_parse_round_trip():
    spec = parse_curve_spec({"type": "circle", "dim": 2, "params": {"r": 2.0}})
    assert spec.type == "circle" and spec.dim == 2


def test_parse_rejects_unknown_fields():
    with pytest.raises(SpecFileError):
        parse_curve_spec({"type": "circle", "dim": 2, "params": {"r": 1.0}, "color": "red"})
    with pytest.raises(SpecFileError):
        parse_curve_spec({"type": "circle", "dim": 2, "params": {"radius": 1.0}})
    with pytest.raises(SpecFileError):
        parse_curve_spec({"type": "spiral", "dim": 2})
    with pytest.raises(SpecFileError):
        parse_curve_spec({"type": "samples", "dim": 2})  # rows missing


def test_build_each_type(tmp_path):
    for obj, dim in [
        ({"type": "circle", "dim": 2, "params": {"r": 1.0}}, 2),
        ({"type": "helix", "dim": 3, "params": {"a": 1.0, "b": 0.5}}, 3),
        ({"type": "wcurve", "dim": 5,
          "params": {"radii": [1, 1], "frequencies": [1, 2], "pitch": 1.0}}, 5),
        ({"type": "salkowski", "dim": 3, "params": {"n": 0.3}}, 3),
    ]:
        curve = build_curve(parse_curve_spec(obj))
        assert curve.dimension == dim


def test_samples_spec_round_trip(tmp_path, helix_spec):
    curve = build_curve(load_curve_spec(helix_spec))
    spec = parse_curve_spec(samples_spec_dict(curve, 64))
    rebuilt = build_curve(spec)
    for t in np.linspace(0.5, 5.5, 7):
        np.testing.assert_allclose(rebuilt.point(float(t)), curve.point(float(t)), atol=1e-9)


def test_run_config_validation(tmp_path, helix_spec, capsys):
    # each value is refused while argparse parses it, before any directory is made
    out = tmp_path / "new" / "x"
    for flag in ["--grid-points=4", "--tolerance=-1.0"]:
        assert main(["analyze", flag, "--input", helix_spec, "--output", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(f"error: argument {flag.split('=')[0]}: ")
    assert not out.parent.exists()


# ----------------------------------------------------------------------- analyze

def test_analyze_circle_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, "c.json", {"type": "circle", "dim": 2, "params": {"r": 2.0}})
    out = tmp_path / "out"
    assert main(["analyze", "--input", spec, "--output", str(out)]) == EXIT_OK
    header, rows = read_csv(out.with_suffix(".csv"))
    k = header.index("kappa_1")
    assert all(row[k] == pytest.approx(0.5, abs=1e-9) for row in rows)
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["schema_version"] == 2
    assert "seed" not in report
    assert report["classification"]["is_w_curve"] is True
    capsys.readouterr()
    rc = main(["analyze", "--input", spec, "--output", str(out), "--seed", "42"])
    assert rc == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 42\n"


def test_analyze_straight_line_is_numeric_failure(tmp_path):
    rows = [[float(t), float(t), 2.0 * t] for t in np.linspace(0, 1, 32)]
    spec = write_spec(tmp_path, "line.json",
                      {"type": "samples", "dim": 2, "params": {}, "rows": rows})
    out = tmp_path / "line"
    assert main(["analyze", "--input", spec, "--output", str(out)]) == EXIT_NUMERIC_FAILURE


@pytest.mark.parametrize("command", ["analyze", "focal", "slant", "verify"])
def test_huge_helix_is_a_numeric_failure(tmp_path, capsys, command):
    # At radius 1e120 Gram-Schmidt's rank tolerance, 1e-8 times the speed to
    # the power of the vector's index, overflows. Its warning escaped, and
    # under error::RuntimeWarning analyze, slant and verify died with exit 1,
    # the code of a failed verification. The overflowed tolerance is +inf
    # and flags every row, as exact arithmetic would, so every command
    # exits 3. That mends only the exit code: the curve is a helix, and a
    # rank rule free of the curve's units (ROADMAP item 14) moves these
    # runs to 0.
    spec = write_spec(tmp_path, "big.json",
                      {"type": "helix", "dim": 3, "params": {"a": 1e120, "b": 1.0}})
    out = tmp_path / command
    assert main([command, "--input", spec, "--output", str(out)]) == EXIT_NUMERIC_FAILURE
    err = capsys.readouterr().err
    if command == "analyze":
        assert err == ""
        assert json.loads(out.with_suffix(".json").read_text())["rows_ok"] == 0
    else:
        assert err.startswith("numeric failure: ") and err.count("\n") == 1


# ------------------------------------------------------------------------- slant

def test_slant_helix_reports(tmp_path, helix_spec):
    out = tmp_path / "slant"
    assert main(["slant", "--input", helix_spec, "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    verdicts = {r["k"]: r for r in payload["reports"]}
    assert verdicts[1]["is_slant"] is True
    assert verdicts[2]["excluded_perpendicular"] is True
    assert verdicts[3]["is_slant"] is True
    np.testing.assert_allclose(verdicts[1]["axis"], [0, 0, 1], atol=1e-9)


def test_slant_single_k(tmp_path, helix_spec):
    out = tmp_path / "s1"
    assert main(["slant", "--input", helix_spec, "--output", str(out), "--k", "2"]) == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    assert [r["k"] for r in payload["reports"]] == [2]


# ------------------------------------------------------------------------ verify

def test_verify_helix_k1(tmp_path, helix_spec):
    out = tmp_path / "verify"
    rc = main(["verify", "--input", helix_spec, "--output", str(out), "--k", "1"])
    assert rc == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    rep = payload["reports"][0]
    assert payload["all_passed"] is True
    assert rep["k_prime"] == 3
    assert rep["focal"]["is_slant"] is True
    np.testing.assert_allclose(rep["focal"]["axis"], [0, 0, 1], atol=1e-6)


def test_verify_all_detected_indices(tmp_path, helix_spec):
    out = tmp_path / "verify_all"
    rc = main(["verify", "--input", helix_spec, "--output", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["verified_k"] == [1, 3]


def test_verify_nothing_to_verify_fails(tmp_path):
    spec = write_spec(tmp_path, "c.json", {"type": "circle", "dim": 2, "params": {"r": 1.0}})
    out = tmp_path / "v"
    assert main(["verify", "--input", spec, "--output", str(out)]) == EXIT_VERIFY_FAILED
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["reports"] == [] and "note" in payload


# --------------------------------------------------------------------- synthesize

def test_synthesize_then_analyze_round_trip(tmp_path):
    s = np.linspace(0.0, 10.0, 128)
    rows = [[float(x), 0.4, 0.2] for x in s]
    spec = write_spec(tmp_path, "curv.json",
                      {"type": "curvatures", "dim": 3, "params": {},
                       "domain": [0.0, 10.0], "rows": rows})
    syn_out = tmp_path / "syn"
    assert main(["synthesize", "--input", spec, "--output", str(syn_out)]) == EXIT_OK

    ana_out = tmp_path / "re"
    rc = main(["analyze", "--input", str(syn_out.with_suffix(".json")),
               "--output", str(ana_out)])
    assert rc == EXIT_OK
    header, rows = read_csv(ana_out.with_suffix(".csv"))
    k1, k2 = header.index("kappa_1"), header.index("kappa_2")
    body = rows[5:-5]  # one-sided stencil rows excluded
    assert max(abs(r[k1] - 0.4) for r in body) < 1e-5
    assert max(abs(r[k2] - 0.2) for r in body) < 1e-5


def test_synthesize_default_step_matches_a_fine_step(tmp_path):
    # The 256 sample rows of varying_curvatures.json, all but the ends
    # between integration nodes, at the default step and at 10/4096.
    spec = write_spec(tmp_path, "v.json", EXAMPLE_SPECS["varying_curvatures.json"])
    rows = []
    for name, step in (("default", []), ("fine", ["--step", "0.00244140625"])):
        out = tmp_path / name
        assert main(["synthesize", "--input", spec, "--output", str(out), *step]) == EXIT_OK
        rows.append(np.array(json.loads(out.with_suffix(".json").read_text())["rows"]))
    default, fine = rows
    assert default.shape == fine.shape == (256, 4)
    assert np.array_equal(default[:, 0], fine[:, 0])
    assert np.all(np.max(np.abs(default[:, 1:] - fine[:, 1:]), axis=0) < 1e-11)


def test_output_prefix_keeps_a_dot_in_its_last_part(tmp_path, helix_spec):
    # the suffix is appended to the whole prefix, so step0.5 and step0.25
    # write four files rather than both landing on step0.csv and step0.json
    for prefix in ("step0.5", "step0.25"):
        out = tmp_path / "out" / prefix
        assert main(["analyze", "--input", helix_spec, "--output", str(out)]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["step0.25.csv", "step0.25.json", "step0.5.csv", "step0.5.json"]


@pytest.mark.parametrize("prefix", ["", ".", "/"])
def test_output_prefix_without_a_name_is_input_error(helix_spec, capsys, prefix):
    assert main(["analyze", "--input", helix_spec, "--output", prefix]) == EXIT_INPUT_ERROR
    assert "names no file" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["under a file", "csv is a directory"])
def test_unwritable_output_prefix_is_input_error(tmp_path, helix_spec, capsys, where):
    if where == "under a file":
        (tmp_path / "some_file").write_text("")
        prefix = tmp_path / "some_file" / "out"
    else:
        prefix = tmp_path / "out"
        (tmp_path / "out.csv").mkdir()
    assert main(["analyze", "--input", helix_spec, "--output", str(prefix)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_synthesize_rejects_wrong_spec_type(tmp_path, helix_spec):
    out = tmp_path / "x"
    assert main(["synthesize", "--input", helix_spec, "--output", str(out)]) == EXIT_INPUT_ERROR


# ------------------------------------------------------------------------- focal

def test_focal_helix(tmp_path, helix_spec):
    out = tmp_path / "focal"
    assert main(["focal", "--input", helix_spec, "--output", str(out), "--grid-points", "128"]) == EXIT_OK
    header, rows = read_csv(out.with_suffix(".csv"))
    c1, acol = header.index("c_1"), header.index("A")
    mid = rows[len(rows) // 2]
    assert mid[c1] == pytest.approx(2.5, abs=1e-6)
    assert mid[acol] == pytest.approx(0.5, abs=1e-6)
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["relations"]["pattern"] == "even"


def test_focal_circle_is_numeric_failure(tmp_path):
    spec = write_spec(tmp_path, "c.json", {"type": "circle", "dim": 2, "params": {"r": 2.0}})
    out = tmp_path / "fc"
    assert main(["focal", "--input", spec, "--output", str(out)]) == EXIT_NUMERIC_FAILURE
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["relations"] is None


# ------------------------------------------------------------- compute once

@pytest.mark.parametrize("command,spec,passes", [
    ("focal", {"type": "helix", "dim": 3, "params": {"a": 2.0, "b": 1.0}}, 2),
    ("slant", {"type": "wcurve", "dim": 5,
               "params": {"radii": [1.0, 1.0], "frequencies": [1.0, 2.0], "pitch": 1.0}}, 1),
    ("verify", {"type": "wcurve", "dim": 5,
                "params": {"radii": [1.0, 1.0], "frequencies": [1.0, 2.0], "pitch": 1.0}}, 3),
    ("verify", EXAMPLE_SPECS["constant_curvatures.json"], 2),
])
def test_each_command_runs_one_frenet_pass_per_curve(tmp_path, monkeypatch, command, spec,
                                                      passes):
    # focal: the curve and its focal curve; slant: the curve, for every k;
    # verify (k = 1, 3, 5 are slant): the curve, its arclength version and
    # the focal curve, shared by every k; verify on a unit-speed curve: the
    # curve, whose one pass also feeds the focal recursion, and the focal curve.
    # A pass is a Frenet-layer oracle call; a call the curve's kept pass
    # answers makes none.
    import focalframe.frenet

    calls = []
    real = focalframe.frenet.eval_derivatives

    def eval_derivatives(curve, *args, **kwargs):
        calls.append(curve.label)
        return real(curve, *args, **kwargs)

    monkeypatch.setattr(focalframe.frenet, "eval_derivatives", eval_derivatives)
    path = write_spec(tmp_path, "spec.json", spec)
    rc = main([command, "--input", path, "--output", str(tmp_path / "out"), "--grid-points", "128"])
    assert rc == EXIT_OK
    assert len(calls) == passes, calls


_HELIX = "helix(a=2.0,b=1.0)"
_SYNTH = "synthesized(m=2)"


@pytest.mark.parametrize("command,name,calls", [
    ("analyze", "circle", {("circle(r=2.0)", 256): 1}),
    ("slant", "wcurve5",
     {("wcurve(radii=[1.0, 1.0],freqs=[1.0, 2.0],pitch=1.0)", 256): 1}),
    ("focal", "helix",
     {(f"arclength({_HELIX})", 256): 1, (f"focal(arclength({_HELIX}))", 256): 1}),
    ("verify", "helix", {(_HELIX, 256): 1, (f"arclength({_HELIX})", 256): 1,
                         (f"focal(arclength({_HELIX}))", 250): 1}),
    ("verify", "constant_curvatures", {(_SYNTH, 256): 1, (f"focal({_SYNTH})", 250): 1}),
    ("synthesize", "varying_curvatures", {(_SYNTH, 256): 1}),
], ids=["analyze-circle", "slant-wcurve5", "focal-helix", "verify-helix",
        "verify-constant_curvatures", "synthesize-varying_curvatures"])
def test_each_command_makes_one_oracle_call_per_curve_and_grid(tmp_path, monkeypatch, command,
                                                                name, calls):
    # Every checked oracle call, keyed by (curve label, number of points). Unit-speed
    # probes and arclength tables call curve.evaluator directly and are not counted.
    # Modules load on first use, and one loaded after the patch would bind the
    # real function: load them all first.
    for info in pkgutil.iter_modules(focalframe.__path__, "focalframe."):
        if info.name != "focalframe.__main__":
            importlib.import_module(info.name)
    real = focalframe.curves.eval_derivatives
    seen = collections.Counter()

    def eval_derivatives(curve, t, order):
        seen[curve.label, int(np.size(t))] += 1
        return real(curve, t, order)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("focalframe")
                and getattr(module, "eval_derivatives", None) is real):
            monkeypatch.setattr(module, "eval_derivatives", eval_derivatives)
    path = write_spec(tmp_path, "spec.json", EXAMPLE_SPECS[f"{name}.json"])
    rc = main([command, "--input", path, "--output", str(tmp_path / "out")])
    assert rc == EXIT_OK
    assert dict(seen) == calls


# ----------------------------------------------------------------- exit behavior

def test_missing_input_is_input_error(tmp_path):
    out = tmp_path / "x"
    assert main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--output", str(out)]) == EXIT_INPUT_ERROR


def test_unknown_field_is_input_error(tmp_path):
    spec = write_spec(tmp_path, "bad.json",
                      {"type": "circle", "dim": 2, "params": {"r": 1.0}, "oops": 1})
    assert main(["analyze", "--input", spec, "--output", str(tmp_path / "x")]) == EXIT_INPUT_ERROR


def test_spec_that_is_not_utf8_is_input_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe")
    with pytest.raises(SpecFileError, match="invalid JSON"):
        load_curve_spec(spec)
    assert main(["analyze", "--input", str(spec), "--output", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# The exit code of each failure is its class's base, and so is the prefix
# of its one stderr line.
_BASES = {errors.InputError: (EXIT_INPUT_ERROR, "error: "),
          errors.NumericFailure: (EXIT_NUMERIC_FAILURE, "numeric failure: ")}
_CONCRETE = sorted((c for c in vars(errors).values() if isinstance(c, type)
                    and issubclass(c, errors.FocalFrameError)
                    and c not in (errors.FocalFrameError, *_BASES)), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _CONCRETE, ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_base_code(tmp_path, monkeypatch, capsys, cls):
    (base,) = [b for b in _BASES if issubclass(cls, b)]  # exactly one
    code, prefix = _BASES[base]
    exc = cls(2, 0.5) if cls is errors.ReducedOrder else cls("boom")

    def fail(args, out):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "analyze", fail)
    args = build_parser().parse_args(["analyze", "--input", "unread.json",
                                      "--output", str(tmp_path / "x")])
    assert cli.run(args) == code
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


# The sampled focal curve's derivatives stop at order 5; the message names
# the curve, so a focal-curve limit reads apart from an input limit.
_FOCAL_LIMIT = "exceeds max_order 5 of sampled curve focal("


def test_verify_above_e5_is_a_method_limit(tmp_path, capsys):
    # the pitched E7 W-curve is tangent slant, so verify builds its focal
    # curve, whose sampled derivatives stop at order 5 of the 7 it needs
    spec = write_spec(tmp_path, "w7.json", EXAMPLE_SPECS["wcurve7.json"])
    assert main(["verify", "--input", spec, "--output", str(tmp_path / "v"),
                 "--grid-points", "128"]) == EXIT_NUMERIC_FAILURE
    assert _FOCAL_LIMIT in capsys.readouterr().err


def test_focal_above_e5_is_a_method_limit(tmp_path):
    spec = write_spec(tmp_path, "w7.json", EXAMPLE_SPECS["wcurve7.json"])
    out = tmp_path / "f"
    assert main(["focal", "--input", spec, "--output", str(out),
                 "--grid-points", "128"]) == EXIT_NUMERIC_FAILURE
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["relations"] is None and _FOCAL_LIMIT in payload["error"]


@pytest.mark.parametrize("dim", range(3, 9))
def test_synthesized_samples_read_back_or_name_the_order_limit(tmp_path, capsys, dim):
    # synthesize accepts every dimension; a samples spec is a sampled curve,
    # whose derivatives stop at order 5, and its frame in E^dim needs order
    # dim: above E5 reading the samples back is a numeric failure
    rows = [[float(s), *[1.0 - 0.1 * i for i in range(dim - 1)]] for s in range(11)]
    spec = write_spec(tmp_path, "curv.json",
                      {"type": "curvatures", "dim": dim, "params": {}, "rows": rows})
    samples = tmp_path / "syn"
    assert main(["synthesize", "--input", spec, "--output", str(samples)]) == EXIT_OK
    want = EXIT_OK if dim <= 5 else EXIT_NUMERIC_FAILURE
    for command in ("analyze", "slant"):
        capsys.readouterr()
        assert main([command, "--input", str(samples.with_suffix(".json")),
                     "--output", str(tmp_path / command)]) == want
        err = capsys.readouterr().err
        if dim <= 5:
            assert err == ""
        else:
            assert err == (f"numeric failure: order {dim} exceeds max_order 5 "
                           "of sampled curve samples spec\n")


@pytest.mark.parametrize("args", [
    ["focal", "--grid-points", "32"],
    ["verify", "--grid-points", "32"],
    ["verify", "--k", "9"],
    ["slant", "--k", "0"],
    ["analyze", "--grid-points", "10000000000000"],
    ["slant", "--tolerance", "nan"],
    ["slant", "--tolerance", "inf"],
    ["analyze", "--step", "inf"],
    ["analyze", "--step", "nan"],
    ["analyze", "--step", "0"],
    ["synthesize", "--step", "1e-300"],
    ["slant", "--tolerance", "-1e+16"],  # argparse reads the value as an unknown flag
    # a flag the command does not read; each exited 0, the flag ignored
    ["focal", "--k", "7"],
    ["focal", "--tolerance", "1e-3"],
    ["analyze", "--k", "9"],
    ["synthesize", "--tolerance", "5"],
    ["analyze", "--step", "0.5"],  # a helix spec has nothing to integrate
    ["analyze", "--grid-points", "x"],
    ["slant", "--tolerance", "x"],
    ["analyze", "--grid-points", "8"],
    ["analyze", "--grid-points", "65537"],
    ["analyze", "--dim", "3"],  # no flag: the spec's dim is the dimension
])
def test_flag_out_of_range_is_input_error(tmp_path, helix_spec, capsys, args):
    spec = helix_spec
    if args[0] == "synthesize":
        spec = write_spec(tmp_path, "curv.json", {
            "type": "curvatures", "dim": 3, "params": {},
            "rows": [[float(s), 0.4, 0.2] for s in range(8)]})
    rc = main([*args, "--input", spec, "--output", str(tmp_path / "x")])
    assert rc == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert args[1].lstrip("-") in err  # the message names the flag


@pytest.mark.parametrize("fields", [
    {"params": {"a": "nan", "b": 1.0}},
    {"params": {"a": 2.0, "b": 1.0}, "domain": ["x", 1.0]},
    # found by the exit-code fuzz test: each printed overflow warnings before its error line
    {"type": "curvatures", "dim": 2, "params": {},
     "rows": [[0.0, 1.0], [0.1, 1.0], [-3e121, 1.0], [0.3, 1.0], [0.4, 1.0], [0.5, 1.0]]},
    {"type": "curvatures", "dim": 3, "params": {},
     "rows": [[0.0, 1.0, -1e198]] + [[0.4 * i, 1.0, 1.0] for i in range(1, 5)]},
    {"type": "curvatures", "dim": 2, "params": {},
     "rows": [[i * 1e-300, 1.0] for i in range(8)]},  # printed overflow, not the profile error
    {"type": "curvatures", "dim": 2, "params": {},
     "rows": [[i * 1e-80, 1.0] for i in range(8)]},  # built a spline with a slope of -1.5e73
    {"params": {"a": 2.0, "b": 1.0}, "dim": -math.inf},  # raised OverflowError
    {"params": {"a": 2.0, "b": 1.0}, "dim": 2.5},  # was truncated to 2
    {"params": {"a": 2.0, "b": 1.0}, "dim": 7},  # the helix is 3-dimensional
    # rows spanning [0, 10] with a contradicting domain: ran over [0, 10] and exited 0
    {"type": "samples", "params": {}, "domain": [0.0, 1.0],
     "rows": [[t, math.cos(t), math.sin(t), t] for t in np.linspace(0.0, 10.0, 64)]},
    {"type": "curvatures", "params": {}, "domain": [3.0, 4.0],
     "rows": [[float(s), 0.4, 0.2] for s in range(11)]},
    {"type": "curvatures", "dim": 0, "params": {}, "rows": [[], []]},  # raised IndexError
    # --step is the one way to set the integrator step
    {"type": "curvatures", "params": {"step": 0.3},
     "rows": [[float(s), 0.4, 0.2] for s in range(8)]},
], ids=["nan-param", "text-domain", "huge-node", "huge-last-curvature", "close-nodes",
        "inexact-stencil", "infinite-dim", "fractional-dim", "wrong-dim", "samples-domain",
        "curvatures-domain", "zero-width-rows", "curvatures-step"])
def test_bad_spec_value_is_input_error(tmp_path, capsys, request, fields):
    spec = write_spec(tmp_path, "bad.json", {"type": "helix", "dim": 3, **fields})
    assert main(["analyze", "--input", spec, "--output", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if request.node.callspec.id == "close-nodes":
        assert err == "error: spline coefficients overflow with nodes 1e-300 apart and " \
                      "values up to 1\n"
    if request.node.callspec.id == "curvatures-step":
        assert err == "error: unknown params for type 'curvatures': ['step']\n"
    if request.node.callspec.id == "inexact-stencil":
        assert err.startswith("error: spline end-slope stencil loses precision with nodes "
                              "1e-80 apart")


def test_cli_import_does_not_load_scipy():
    src = Path(focalframe.__file__).resolve().parent.parent
    code = "import sys, focalframe.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def _loaded_after(code: str) -> list[str]:
    """What ``code`` prints in a fresh interpreter, then every module it left loaded."""
    src = Path(focalframe.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint(*sorted(sys.modules))"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_package_import_loads_no_submodule_and_not_numpy():
    loaded = _loaded_after("import focalframe")
    assert "focalframe" in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy" or m.startswith("focalframe.")] == []


@pytest.mark.parametrize("command,name,absent", [
    ("analyze", "helix", ("focalframe.arclength", "focalframe.synthesis", "focalframe.focal",
                          "focalframe.slant", "numpy.polynomial")),
    ("synthesize", "varying_curvatures", ("focalframe.frenet", "focalframe.focal",
                                          "focalframe.slant", "focalframe.arclength",
                                          "numpy.polynomial")),
    ("focal", "helix", ("focalframe.synthesis",)),
    ("slant", "wcurve5", ("focalframe.synthesis",)),
    ("verify", "salkowski", ("focalframe.synthesis",)),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command, name, absent):
    path = write_spec(tmp_path, "spec.json", EXAMPLE_SPECS[f"{name}.json"])
    argv = [command, "--input", path, "--output", str(tmp_path / "out")]
    rc, *loaded = _loaded_after(f"from focalframe.cli import main\nprint(main({argv!r}))")
    assert int(rc) == EXIT_OK
    assert "focalframe.specfile" in loaded
    assert sorted(set(absent) & set(loaded)) == []


# Every public name of the package, and of focalframe.curves, that callers
# may already use; each keeps resolving wherever its code lives.
_PACKAGE_NAMES = (
    "AxisFit", "BadParameters", "Classification", "ConvergenceFailure", "CurvatureProfile",
    "Curve", "DivisionGuard", "FocalData", "FocalFrameError", "FocalRelationsReport",
    "FrenetData", "InputError", "InvalidProfile", "NotUnitSpeed", "NumericFailure",
    "OrderUnsupported", "OutOfDomain",
    "ReducedOrder", "RegularityFailure", "ResidualTable", "SingularSystem", "SlantReport",
    "SpecFileError", "TheoremReport", "arc_length", "classify", "classify_curvatures",
    "coefficient_residuals", "curvature_table", "curve_from_coordinates", "curves", "errors",
    "estimate_axis", "eval_derivatives", "focal", "focal_curvatures", "focal_curve",
    "focal_relations_check", "frenet", "frenet_apparatus", "frenet_grid", "is_k_slant",
    "linalg", "make_circle", "make_ellipse", "make_helix", "make_salkowski", "make_wcurve",
    "numdiff", "osculating_center_oracle", "random_trig_curve", "reparam_to_arclength",
    "sampled_curve", "series", "slant", "slant_reports", "solve_linear",
    "synthesize_from_curvatures", "theorem_target_index", "verify_focal_slant",
    "verify_focal_slants",
)
_CURVES_NAMES = (
    "Curve", "eval_derivatives", "make_curve", "TrigCoordinate", "curve_from_coordinates",
    "make_circle", "make_ellipse", "make_helix", "make_wcurve", "make_salkowski",
    "random_trig_curve", "arc_length", "reparam_to_arclength", "as_unit_speed",
    "sampled_curve", "ProfileFunction", "ConstantProfile", "LinearProfile", "SinusoidProfile",
    "SplineProfile", "CurvatureProfile", "synthesize_from_curvatures",
)


def _defined_in_home_module(name: str, obj) -> bool:
    """``obj`` is the submodule ``focalframe.name`` or the object that its own
    module binds to ``name``."""
    if isinstance(obj, type(sys)):
        return obj is sys.modules[f"focalframe.{name}"]
    home = sys.modules[obj.__module__]
    return home.__name__.startswith("focalframe.") and getattr(home, name) is obj


def test_package_names_resolve_to_their_home_objects():
    assert set(_PACKAGE_NAMES) <= set(focalframe.__all__)
    for name in _PACKAGE_NAMES:
        assert _defined_in_home_module(name, getattr(focalframe, name)), name
    assert set(focalframe.__all__) <= set(dir(focalframe))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from focalframe import *", namespace)
    assert set(focalframe.__all__) <= set(namespace)
    assert namespace["make_helix"] is focalframe.curves.make_helix
    assert namespace["CurvatureProfile"] is focalframe.synthesis.CurvatureProfile


def test_curves_names_resolve_wherever_their_kind_lives():
    import focalframe.curves as curves

    for name in _CURVES_NAMES:
        obj = getattr(curves, name)
        assert _defined_in_home_module(name, obj), name
        assert obj.__module__ in ("focalframe.curves", "focalframe.arclength",
                                  "focalframe.synthesis"), name
    with pytest.raises(AttributeError):
        curves._ArclengthMap  # private names are not forwarded


def test_outputs_are_byte_identical(tmp_path, helix_spec):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["slant", "--input", helix_spec, "--output", str(a)])
    main(["slant", "--input", helix_spec, "--output", str(b)])
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
    main(["analyze", "--input", helix_spec, "--output", str(a)])
    main(["analyze", "--input", helix_spec, "--output", str(b)])
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


# ------------------------------------------------------------ exit-code fuzzing

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
_ANY_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3))
_POSITIVE = st.floats(0.05, 3.0)
_ODD_VALUE = st.one_of(_ANY_NUMBER, _JUNK)


@st.composite
def _maybe(draw, valid, weight=4):
    """Mostly a valid value, sometimes any number or a wrong type."""
    return draw(valid if draw(st.integers(0, weight)) else _ODD_VALUE)


@st.composite
def _params(draw, ctype, dim):
    if ctype == "circle":
        params = {"r": draw(_maybe(_POSITIVE))}
    elif ctype == "helix":
        params = {"a": draw(_maybe(_POSITIVE)), "b": draw(_maybe(_POSITIVE))}
    elif ctype == "salkowski":
        params = {"n": draw(_maybe(st.floats(-0.95, 0.95)))}
    elif ctype == "wcurve":
        blocks = max(1, dim // 2) if isinstance(dim, int) else 1
        lists = st.lists(_maybe(_POSITIVE), min_size=0, max_size=3)
        params = {
            "radii": draw(_maybe(st.lists(_POSITIVE, min_size=blocks, max_size=blocks))
                          | lists),
            "frequencies": draw(_maybe(st.just([float(i + 1) for i in range(blocks)])) | lists),
            "pitch": draw(_maybe(_POSITIVE)),
        }
    else:
        params = {}
    if draw(st.integers(0, 9)) == 0:
        params["unknown"] = 1.0
    keys = sorted(params)
    return {k: params[k] for k in keys if draw(st.integers(0, 7))}


@st.composite
def _rows(draw, ctype, dim):
    width = dim + (1 if ctype == "samples" else 0) if isinstance(dim, int) and 1 <= dim <= 6 else 3
    n = draw(st.integers(0, 64))
    length = draw(st.floats(0.5, 4.0))
    t = np.linspace(0.0, length, n)
    # smooth data; one odd cell or a reversal below make it bad
    if ctype == "samples":
        x = np.column_stack([np.cos(t * (j + 1) + j) for j in range(width - 1)]) if n else []
        rows = np.column_stack([t, x]).tolist() if n else []
    else:
        levels = np.array([draw(_POSITIVE) for _ in range(width - 1)])
        wobble = draw(st.floats(-1.0, 1.0)) * np.sin(t)[:, None]
        rows = np.column_stack([t, levels * (1.0 + 0.5 * wobble)]).tolist()
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))
        rows[i][j] = draw(_ODD_VALUE)
    if rows and draw(st.integers(0, 5)) == 0:
        rows = rows[::-1]
    return draw(_maybe(st.just(rows), 6))


@st.composite
def _specs(draw):
    ctype = draw(_maybe(st.sampled_from(CURVE_TYPES), 8))
    fitting = {"circle": 2, "helix": 3, "salkowski": 3}.get(ctype if isinstance(ctype, str) else "")
    dim = draw(_maybe(st.integers(1, 6) if fitting is None else st.just(fitting), 8))
    spec = {"type": ctype, "dim": dim}
    if draw(st.integers(0, 9)):
        spec["params"] = draw(_params(ctype, dim))
    else:
        spec["params"] = draw(_ODD_VALUE)
    if draw(st.integers(0, 3)) == 0:
        spec["domain"] = draw(st.one_of(st.lists(_maybe(st.floats(-4.0, 8.0)), min_size=2,
                                                 max_size=2),
                                        st.lists(_ANY_NUMBER, max_size=3), _JUNK))
    if ctype in ("samples", "curvatures") or draw(st.integers(0, 9)) == 0:
        spec["rows"] = draw(_rows(ctype, dim))
    return spec


@st.composite
def _flags(draw):
    command = draw(st.sampled_from(["analyze", "focal", "slant", "verify", "synthesize"]))
    grid = draw(st.sampled_from([64, 128]) | st.integers(16, 128))
    flags = [command, "--grid-points", str(grid)]
    for flag, values in [
        ("--tolerance", st.floats(allow_nan=True, allow_infinity=True) | st.floats(1e-8, 1e-2)),
        ("--k", st.integers(-1, 7)),
        ("--step", st.floats(1e-3, 2.0)),
    ]:
        if draw(st.integers(0, 3)) == 0:
            # "--flag=value": argparse reads a separate "-1e+16" as an option
            flags.append(f"{flag}={draw(values)!r}")
    return flags


def run_main(spec, flags):
    """Run the CLI in process on ``spec``; returns (exit code, stderr text)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*flags, "--input", str(path), "--output", str(Path(tmp) / "out")])
    return rc, err.getvalue()


@given(spec=_specs(), flags=_flags())
@settings(max_examples=40)
def test_exit_code_contract_holds_for_any_spec_and_flags(spec, flags):
    rc, err = run_main(spec, flags)
    assert rc in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR, EXIT_NUMERIC_FAILURE)
    assert err.count("\n") <= 1
    if rc == EXIT_INPUT_ERROR:
        assert err.startswith("error: ")
    elif rc == EXIT_NUMERIC_FAILURE and err:
        assert err.startswith("numeric failure: ")
    else:  # analyze and focal may write a numeric failure into their JSON
        assert err == "" and (rc != EXIT_NUMERIC_FAILURE or flags[0] in ("analyze", "focal"))
