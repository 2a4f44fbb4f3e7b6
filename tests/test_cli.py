import csv
import json
import math

import numpy as np
import pytest

from focalframe.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_FAILURE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    RunConfig,
    main,
)
from focalframe.errors import SpecFileError
from focalframe.specfile import (
    build_curve,
    load_curve_spec,
    parse_curve_spec,
    samples_spec_dict,
)


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


def test_run_config_validation():
    with pytest.raises(SpecFileError):
        RunConfig("analyze", "a", "b", grid_points=4)
    with pytest.raises(SpecFileError):
        RunConfig("analyze", "a", "b", tolerance=-1.0)


# ----------------------------------------------------------------------- analyze

def test_analyze_circle_csv(tmp_path):
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
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", spec, "--output", str(out), "--seed", "42"])
    assert exc.value.code == EXIT_INPUT_ERROR


def test_analyze_straight_line_is_numeric_failure(tmp_path):
    rows = [[float(t), float(t), 2.0 * t] for t in np.linspace(0, 1, 32)]
    spec = write_spec(tmp_path, "line.json",
                      {"type": "samples", "dim": 2, "params": {}, "rows": rows})
    out = tmp_path / "line"
    assert main(["analyze", "--input", spec, "--output", str(out)]) == EXIT_NUMERIC_FAILURE


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


# ----------------------------------------------------------------- exit behavior

def test_missing_input_is_input_error(tmp_path):
    out = tmp_path / "x"
    assert main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--output", str(out)]) == EXIT_INPUT_ERROR


def test_unknown_field_is_input_error(tmp_path):
    spec = write_spec(tmp_path, "bad.json",
                      {"type": "circle", "dim": 2, "params": {"r": 1.0}, "oops": 1})
    assert main(["analyze", "--input", spec, "--output", str(tmp_path / "x")]) == EXIT_INPUT_ERROR


def test_dim_flag_contradiction(tmp_path, helix_spec):
    assert main(["analyze", "--input", helix_spec, "--output", str(tmp_path / "x"),
                 "--dim", "4"]) == EXIT_INPUT_ERROR


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


@pytest.mark.parametrize("fields", [
    {"params": {"a": "nan", "b": 1.0}},
    {"params": {"a": 2.0, "b": 1.0}, "domain": ["x", 1.0]},
], ids=["nan-param", "text-domain"])
def test_bad_spec_value_is_input_error(tmp_path, capsys, fields):
    spec = write_spec(tmp_path, "bad.json", {"type": "helix", "dim": 3, **fields})
    assert main(["analyze", "--input", spec, "--output", str(tmp_path / "x")]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_outputs_are_byte_identical(tmp_path, helix_spec):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["slant", "--input", helix_spec, "--output", str(a)])
    main(["slant", "--input", helix_spec, "--output", str(b)])
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
    main(["analyze", "--input", helix_spec, "--output", str(a)])
    main(["analyze", "--input", helix_spec, "--output", str(b)])
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
