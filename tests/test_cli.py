import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncshilov
from ncshilov import cli, matcore, selftest, stargen
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


def _walked(value):
    """The reference serialization: a walk that turns every value into a
    Python one before json sees it."""
    if isinstance(value, dict):
        return {str(k): _walked(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walked(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return _walked(value.item())
        return [_walked(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, str) or value is None:
        return value
    return repr(value)


def test_canonical_json_writes_every_value_kind_as_the_reference_walk():
    rng = np.random.default_rng(3)
    cpx = matcore.random_complex(rng, (2, 3))
    payload = {
        "floats": rng.standard_normal((2, 2)), "complex": cpx,
        "complex64": cpx.astype(np.complex64),
        "float32": rng.standard_normal(3).astype(np.float32), "ints": np.arange(4),
        "bools": np.array([True, False]), "empty": np.zeros((0, 3)),
        "zero_d": np.array(0.1), "zero_d_complex": np.array(1 - 2j),
        "scalars": [np.float64(1 / 3), np.float32(0.1), np.int64(-7), np.int32(3), np.bool_(True),
                    np.complex128(0.5 - 1e-300j), np.complex64(2j), 1 / 7, -0.0, 3, True, False,
                    None, "text", 2 + 3j, float("nan"), float("inf"), -float("inf")],
        "nested": {"tuple": (1, np.float64(2.5), (np.int8(1),)), "z": {"deep": [cpx[0, 0]]}},
        "other": range(3),
    }
    reference = json.dumps(_walked(payload), sort_keys=True, indent=1,
                           separators=(",", ": "), ensure_ascii=True) + "\n"
    assert canonical_json(payload) == reference
    echo = {"kind": "matrix", "generators": cpx, "_matrices": [object()]}
    assert cli.content_hash(echo) == cli.content_hash({k: echo[k] for k in ("kind", "generators")})


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
        else:
            assert "residual" not in step
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


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    calls = []
    real = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: calls.append(1) or real())
    cli._parser.cache_clear()
    inp = _write(tmp_path, "space.json", DIAG_HALF)
    for bad in ("nan", "abc"):
        assert main(["cone", "--input", inp, "--element", "unused.json", "--kind", "x1",
                     "--eps", bad]) == EXIT_PARSE
    assert calls == [1]


def test_exit_code_cone_does_not_span(tmp_path):
    nonspan = _matrix_file([[[0, 1], [1, 0]]], 2)
    inp = _write(tmp_path, "nonspan.json", nonspan)
    assert main(["envelope", "--input", inp]) == EXIT_CONE


def test_envelope_without_an_order_unit_exits_cone(tmp_path, capsys):
    # span{E11, sigma_x} has positives, none definite on the joint range:
    # a conclusive "does not span", with the certified margin bound printed
    inp = _write(tmp_path, "e11sx.json", _matrix_file([[[1, 0], [0, 0]], [[0, 1], [1, 0]]], 2))
    assert main(["envelope", "--input", inp]) == EXIT_CONE
    err = capsys.readouterr().err
    assert err.startswith("not applicable: positive cone does not span")
    assert "by " in err and "<= tol 1e-07" in err


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


LP_ALLOWANCE = 1e-8  # rounding allowance of the re-checks below, on generators of size <= 1


def _recheck_point_verdicts(report, gens):
    """What fails when every point verdict of a ``boundary`` report is
    re-checked against the generators ``gens`` of its input file alone.

    The real part X_r of the space is spanned by the real and imaginary
    parts of the generators.  A combination c must give h(idx) = sum_o c_o
    h(o) for every generator h, with sum |c_o| <= 1 + tol; a function g,
    lifted from its values on the classes to the points, must lie in X_r,
    with |g| <= 1 on the others and g(idx) > 1 + max(tol, 1e-6); a kernel
    direction must lie in X_r with g(idx) = 1 and g ~ 0 on the others.
    Each test's others must be the classes left at that point."""
    rep, tol = report["boundary"], report["tolerance"]
    reps = [c[0] for c in rep["classes"]]
    span = np.concatenate([gens.real, gens.imag])
    active, problems = list(range(len(reps))), []
    for n, v in enumerate(rep["verdicts"]):
        idx = rep["classes"].index(v["point_class"])
        if v["others"] != [c for c in active if c != idx]:
            problems.append(f"verdict {n}: others {v['others']}, active {active}")
        if v["certificate"] == "combination":
            c = np.asarray(v["coefficients"])
            err = gens[:, reps[idx]] - gens[:, [reps[o] for o in v["others"]]] @ c
            if np.abs(err).max() > LP_ALLOWANCE or np.abs(c).sum() > 1.0 + tol:
                problems.append(f"verdict {n}: combination fails")
        elif v["certificate"] in ("function", "kernel"):
            g = np.array([0.0 if k is None else v["values"][k] for k in rep["point_map"]])
            coef = np.linalg.lstsq(span.T, g, rcond=None)[0]
            on_others = np.abs(np.asarray(v["values"])[v["others"]]).max()
            value = v["values"][idx]
            ok = (value > 1.0 + max(tol, 1e-6) and on_others <= 1.0 + LP_ALLOWANCE
                  if v["certificate"] == "function"
                  else abs(value - 1.0) <= LP_ALLOWANCE and on_others <= LP_ALLOWANCE)
            if np.abs(span.T @ coef - g).max() > LP_ALLOWANCE or not ok:
                problems.append(f"verdict {n}: {v['certificate']} fails")
        else:
            problems.append(f"verdict {n}: no certificate")
        if v["status"] == "loose":
            active.remove(idx)
    if rep["kept_classes"] != active:
        problems.append(f"kept {rep['kept_classes']}, left {active}")
    return problems


def test_boundary_certificates_recheck_from_the_input_file(tmp_path):
    # criterion 5's first 20 spaces, as the draws of its generator
    rng = np.random.default_rng(505)
    kinds = set()
    for i in range(20):
        m = int(rng.integers(3, 9))
        gens = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, min(m, 5) + 1)), m))
        inp = _write(tmp_path, "fn.json", {"format_version": "1", "kind": "function",
                                           "points": m,
                                           "generators": [[_cpx(v) for v in g] for g in gens]})
        out = str(tmp_path / "r.json")
        assert main(["boundary", "--input", inp, "--out", out, "--seed", str(i)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        gens = np.array([[complex(*z) for z in g] for g in report["input"]["generators"]])
        assert _recheck_point_verdicts(report, gens) == []
        kinds.update(v["certificate"] for v in report["boundary"]["verdicts"])
        for v in report["boundary"]["verdicts"]:
            saved = json.dumps(v)
            if v["certificate"] == "combination":
                v["coefficients"][0] += 1e-3
            else:
                v["values"][v["others"][0]] = 1.5
            assert _recheck_point_verdicts(report, gens) != [], v
            v.clear()
            v.update(json.loads(saved))
    assert kinds == {"combination", "function", "kernel"}


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10])
def test_nearly_dependent_compression_keeps_the_boundary(tmp_path, capsys, delta):
    # span{diag(1, 2, 0), diag(delta, 0, 1)}: point 0 is loose, and cutting
    # point 2 leaves the family (1, 2), (delta, 0), independent down to
    # delta ~ 1e-9 with smallest singular value about delta; the kernel
    # test and the cc oracle's domain must decide it by one rule
    inp = _write(tmp_path, "space.json", _matrix_file(
        [[[1, 0, 0], [0, 2, 0], [0, 0, 0]], [[delta, 0, 0], [0, 0, 0], [0, 0, 1]]], 3))
    out = str(tmp_path / "r.json")
    assert main(["envelope", "--input", inp, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())["envelope"]
    assert report["abstract_blocks"] == [1, 1]
    assert report["eliminations"] == 1 and report["envelope_dim"] == 2
    fn = _write(tmp_path, "fn.json", {
        "format_version": "1", "kind": "function", "points": 3,
        "generators": [[_cpx(1), _cpx(2), _cpx(0)], [_cpx(delta), _cpx(0), _cpx(1)]]})
    assert main(["boundary", "--input", fn, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())["boundary"]
    assert report["boundary_points"] == [[1], [2]]
    assert report["diagonal_crosscheck"]["matrix_retained_points"] == [1, 2]
    assert report["diagonal_crosscheck"]["matches"]
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [("envelope", DIAG_HALF), ("boundary", FN_HALF)])
def test_stats_prints_stage_timings_and_leaves_the_report_unchanged(tmp_path, capsys,
                                                                    command, payload):
    inp = _write(tmp_path, "space.json", payload)
    plain, timed = str(tmp_path / "plain.json"), str(tmp_path / "timed.json")
    assert main([command, "--input", inp, "--out", plain]) == EXIT_OK
    assert "stage timings" not in capsys.readouterr().out
    assert main([command, "--input", inp, "--out", timed, "--stats"]) == EXIT_OK
    out = capsys.readouterr().out
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "timed.json").read_bytes()
    # the cc oracle's stages name their route and iteration count
    stages = ["stage timings (wall clock):", " ms  cone_spans", " ms  C*(X) generation and split",
              " by choi bound, "]
    if command == "envelope":
        # one point is cut, and the Cholesky test settles its complement
        stages.append(" ms  certify_embedding: complement by Cholesky at 4 of 4 levels")
    else:
        # each LP stage names its deciding certificate and pivot count
        stages += [" ms  spanning-cone LP: spans by an order unit, ",
                   " ms  LP point test (0,): essential by function, ",
                   " ms  LP point test (2,): loose by combination, "]
        assert all(line.endswith(" pivots") for line in out.splitlines() if " LP" in line), out
    for stage in stages:
        assert stage in out, (stage, out)


@pytest.mark.parametrize("space", ["planted loose", "uncut"])
def test_envelope_report_is_the_same_when_the_cholesky_test_never_decides(
        tmp_path, capsys, monkeypatch, cholesky_answers, space):
    # the Cholesky test stands in for eigenvalues only where it proves what
    # they would decide (certify_embedding's complement norms, the shift of
    # the certified Choi bound); forced to fail, it leaves every eigenvalue
    # to be computed, and the report bytes stay the same
    rng = np.random.default_rng(3)
    if space == "planted loose":
        gens = selftest.loose_instance(rng, a=2, b=1)
    else:
        gens = [selftest.random_psd(rng, 3) for _ in range(3)]
    inp = _write(tmp_path, "space.json", {
        "format_version": "1", "kind": "matrix", "ambient_dim": gens[0].shape[0],
        "generators": [[[[z.real, z.imag] for z in row] for row in g] for g in gens]})
    assert main(["envelope", "--input", inp, "--out", str(tmp_path / "fast.json"),
                 "--stats"]) == EXIT_OK
    detail = "nothing cut" if space == "uncut" else "complement by Cholesky at 4 of 4 levels"
    assert f" ms  certify_embedding: {detail}" in capsys.readouterr().out
    report = json.loads((tmp_path / "fast.json").read_text())["envelope"]
    assert (report["eliminations"] == 0) == (space == "uncut")
    assert all(cholesky_answers) and bool(cholesky_answers) == (space == "planted loose")
    monkeypatch.setattr(matcore, "certified_above", lambda a, floor: False)
    assert main(["envelope", "--input", inp, "--out", str(tmp_path / "eig.json")]) == EXIT_OK
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "eig.json").read_bytes()


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    modules = sorted(Path(ncshilov.__file__).parent.rglob("*.py"))
    assert modules
    assert [p.name for p in modules if pattern.search(p.read_text())] == []


# Runs each argv list of argv[1] through cli.main in a fresh interpreter and
# prints, per command, its exit code and the scipy modules loaded so far.
_MODULE_PROBE = """
import json, sys
from ncshilov import cli
out = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    out.append([argv[0], code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(out))
"""


def test_no_command_loads_scipy(tmp_path):
    gens = selftest.loose_instance(np.random.default_rng(3), a=2, b=1)
    space = {"format_version": "1", "kind": "matrix", "ambient_dim": gens[0].shape[0],
             "generators": [[[[z.real, z.imag] for z in row] for row in g] for g in gens]}
    inp = _write(tmp_path, "space.json", space)
    # -b_0 + 1 at level one: not PSD, so the Xplus query runs a Karn solve
    d = stargen.validate_space(gens).dim
    elem = {"format_version": "1", "level": 1,
            "v_coords": [[[[-1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)]],
            "scalar_part": [[_cpx(1)]]}
    epath = _write(tmp_path, "elem.json", elem)
    commands = [["envelope", "--input", inp], ["unitize", "--input", inp],
                ["distance", "--input", inp],
                ["cone", "--input", inp, "--element", epath, "--kind", "xplus"],
                ["cone", "--input", inp, "--element", epath, "--kind", "x1"],
                ["boundary", "--input", _write(tmp_path, "fn.json", FN_HALF)]]
    src = str(Path(ncshilov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
                         capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=300, check=True)
    results = json.loads(run.stdout.strip().splitlines()[-1])
    assert [(name, code) for name, code, _ in results] == \
        [(c[0], EXIT_OK) for c in commands]
    for name, _, loaded in results:
        assert loaded == [], (name, loaded)


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
