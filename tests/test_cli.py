import json

import numpy as np
import pytest

from ncshilov import cli, stargen
from ncshilov.cli import (
    EXIT_CONE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    canonical_json,
    main,
    parse_element_file,
    parse_space_file,
)
from ncshilov.errors import ElementNotInSpace, ParseError


def _cpx(x):
    return [float(x), 0.0]


def _matrix_file(mats, n):
    return {
        "format_version": "1",
        "kind": "matrix",
        "ambient_dim": n,
        "generators": [[[_cpx(v) for v in row] for row in m] for m in mats],
    }


DIAG_HALF = _matrix_file([[[1, 0, 0], [0, 0, 0], [0, 0, 0.5]],
                          [[0, 0, 0], [0, 1, 0], [0, 0, 0.5]]], 3)
FN_HALF = {
    "format_version": "1",
    "kind": "function",
    "points": 3,
    "generators": [[_cpx(1), _cpx(0), _cpx(0.5)], [_cpx(0), _cpx(1), _cpx(0.5)]],
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_round_trip():
    echo = parse_space_file(json.dumps(DIAG_HALF))
    again = parse_space_file(canonical_json(
        {k: v for k, v in echo.items() if not k.startswith("_")}))
    assert [np.asarray(m) for m in again["_matrices"]][0].shape == (3, 3)
    assert cli.content_hash(echo) == cli.content_hash(again)


def test_parse_rejects_unknown_field():
    bad = dict(DIAG_HALF)
    bad["surprise"] = 1
    with pytest.raises(ParseError) as err:
        parse_space_file(json.dumps(bad))
    assert "surprise" in str(err.value)


def test_parse_rejects_bad_version():
    bad = dict(DIAG_HALF)
    bad["format_version"] = "2"
    with pytest.raises(ParseError):
        parse_space_file(json.dumps(bad))


def test_parse_rejects_shape_mismatch():
    bad = _matrix_file([[[1, 0], [0, 1]]], 3)
    with pytest.raises(ParseError):
        parse_space_file(json.dumps(bad))


def test_parse_rejects_non_pair_entries():
    bad = {"format_version": "1", "kind": "matrix", "ambient_dim": 1,
           "generators": [[[1.0]]]}
    with pytest.raises(ParseError):
        parse_space_file(json.dumps(bad))


def test_element_dimension_check():
    elem = {"format_version": "1", "level": 1,
            "v_coords": [[[_cpx(1)]]], "scalar_part": [[_cpx(0)]]}
    with pytest.raises(ElementNotInSpace):
        parse_element_file(json.dumps(elem), space_dim=2)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------


def test_envelope_command_and_determinism(tmp_path):
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["envelope", "--input", inp, "--out", out1]) == EXIT_OK
    assert main(["envelope", "--input", inp, "--out", out2]) == EXIT_OK
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["envelope"]["abstract_blocks"] == [1, 1]
    assert report["envelope"]["eliminations"] == 1
    assert report["input"]["kind"] == "matrix"
    # every eliminated step carries a certificate or witness
    for step in report["envelope"]["trace"]:
        assert step["status"] in ("loose", "essential")
        assert step["route"] in ("kernel", "zero map", "choi bound", "dual witness")
        if step["status"] == "loose":
            assert "cb_estimate" in step
        if step["removed"]:
            assert isinstance(step["iterations"], int) and step["iterations"] >= 1
            assert step["residual"] <= 1e-8


def test_envelope_exit_code_inconclusive_cone(tmp_path, monkeypatch):
    # a cone-span probe without a certificate is not "the cone does not span"
    def inconclusive(x, tol=1e-7, seed=0):
        return stargen.ConeSpanResult(spans=False, positive_basis=np.zeros((1, 3, 3)),
                                      span_dim=1, inconclusive=True)

    monkeypatch.setattr(stargen, "cone_spans", inconclusive)
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    assert main(["envelope", "--input", inp]) == EXIT_INCONCLUSIVE


def test_envelope_report_echo_reparses(tmp_path):
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    out = str(tmp_path / "r.json")
    assert main(["envelope", "--input", inp, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    echo = parse_space_file(json.dumps(report["input"]))
    assert cli.content_hash(echo) == report["input_sha256"]


def test_exit_code_parse_error(tmp_path):
    bad = dict(DIAG_HALF)
    bad["oops"] = True
    inp = _write(tmp_path, "bad.json", bad)
    assert main(["envelope", "--input", inp]) == EXIT_PARSE


def test_envelope_refuses_a_tolerance_out_of_range(tmp_path, capsys):
    # the probe solves refuse tol 1e-11; that is an error, not "the cone
    # does not span" (both generators of DIAG_HALF are PSD)
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    assert main(["envelope", "--input", inp, "--tol", "1e-11"]) == EXIT_PARSE
    assert "outside [1e-10, 1e-3]" in capsys.readouterr().err


def test_cone_rejects_malformed_eps(tmp_path, capsys, monkeypatch):
    # a bad schedule is a parse error, reported before any envelope solve
    def no_solve(*args, **kwargs):
        raise AssertionError("envelope computed before --eps was parsed")

    monkeypatch.setattr(cli.envelope_mod, "compute_envelope", no_solve)
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    elem = {"format_version": "1", "level": 1,
            "v_coords": [[[_cpx(1), _cpx(0)]]], "scalar_part": [[_cpx(1)]]}
    epath = _write(tmp_path, "elem.json", elem)
    for bad in ("1e-1,abc", "nan"):
        capsys.readouterr()
        assert main(["cone", "--input", inp, "--element", epath, "--kind", "xplus",
                     "--eps", bad]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err


def test_exit_code_cone_does_not_span(tmp_path):
    nonspan = _matrix_file([[[0, 1], [1, 0]]], 2)
    inp = _write(tmp_path, "nonspan.json", nonspan)
    assert main(["envelope", "--input", inp]) == EXIT_CONE


def test_unitize_command(tmp_path, capsys):
    c3 = _matrix_file([[[1, 0, 0], [0, 0, 0], [0, 0, 0.75]],
                       [[0, 0, 0], [0, 1, 0], [0, 0, 0.75]]], 3)
    inp = _write(tmp_path, "c3.json", c3)
    out = str(tmp_path / "r.json")
    assert main(["unitize", "--input", inp, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    uni = report["unitization"]
    assert uni["x1_dim"] == 3
    assert not uni["x1_unital"]
    assert uni["distance_to_unit"] == pytest.approx(0.2, abs=1e-4)
    assert uni["dominating_found"]
    assert uni["envelope_of_x1"]["passed"]


def test_distance_ambient_mode(tmp_path):
    e11 = _matrix_file([[[1, 0], [0, 0]]], 2)
    inp = _write(tmp_path, "e11.json", e11)
    out = str(tmp_path / "r.json")
    assert main(["distance", "--input", inp, "--unit", "ambient",
                 "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["distance"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert not report["distance"]["dominating_found"]


def test_cone_command_both_kinds(tmp_path):
    c3 = _matrix_file([[[1, 0, 0], [0, 0, 0], [0, 0, 0.75]],
                       [[0, 0, 0], [0, 1, 0], [0, 0, 0.75]]], 3)
    inp = _write(tmp_path, "c3.json", c3)
    # element (-g1, A=1) in validated coordinates
    from ncshilov.envelope import compute_envelope
    from ncshilov.stargen import validate_space
    g1 = np.diag([1, 0, 0.75]).astype(complex)
    g2 = np.diag([0, 1, 0.75]).astype(complex)
    env = compute_envelope(validate_space([g1, g2]), seed=0)
    cc = np.einsum("tab,ab->t", env.compressed_basis.conj(), -g1)
    elem = {"format_version": "1", "level": 1,
            "v_coords": [[[[float(c.real), float(c.imag)] for c in cc]]],
            "scalar_part": [[_cpx(1)]]}
    epath = _write(tmp_path, "elem.json", elem)
    out = str(tmp_path / "r.json")
    assert main(["cone", "--input", inp, "--element", epath,
                 "--kind", "xplus", "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["cone"]["verdict"]["member"] == "yes"
    assert report["cone"]["verdict"]["eps_schedule"] == [0.1, 0.01, 0.001]
    assert main(["cone", "--input", inp, "--element", epath,
                 "--kind", "x1"]) == EXIT_OK


def test_boundary_command(tmp_path):
    inp = _write(tmp_path, "fn.json", FN_HALF)
    out = str(tmp_path / "r.json")
    assert main(["boundary", "--input", inp, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["boundary"]["boundary_points"] == [[0], [1]]
    assert report["boundary"]["diagonal_crosscheck"]["matches"]


def test_boundary_rejects_matrix_kind(tmp_path):
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    assert main(["boundary", "--input", inp]) == EXIT_PARSE


def test_selftest_smoke(capsys):
    from ncshilov import selftest
    results = selftest.run_suite("quick", seed=1)
    assert all(r.passed for r in results)


def test_selftest_detects_broken_tolerance(monkeypatch):
    # sanity of the harness: a corrupted check must be reported as failure
    from ncshilov import selftest

    def broken(seed=0, pairs=50):
        return selftest.SuiteResult("positive_contraction_difference", False,
                                    "tolerance corrupted to 1e-1")

    monkeypatch.setattr(selftest, "suite_prop1_inequality", broken)
    results = selftest.run_suite("quick", seed=0)
    assert any(not r.passed for r in results)
