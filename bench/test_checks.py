"""Each output check of the benchmark accepts the program's answer and
rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from ncshilov import envelope, selftest, stargen, unitize  # noqa: E402


def _report(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def test_envelope_report_check(tmp_path):
    rng = np.random.default_rng(3)
    gens = selftest.loose_instance(rng, a=2, b=1)
    path = tmp_path / "space.json"
    path.write_text(inputs.space_file(gens))
    report = tmp_path / "space.report.json"
    code, text, _ = workloads._run_cli(
        ["envelope", "--input", str(path), "--out", str(report), "--seed", "5"], report)
    assert checks.check_envelope_report(code, text, 2) == []
    assert checks.check_envelope_report(3, "", 2)
    assert checks.check_envelope_report(code, text, 3)

    def more_blocks(o):
        o["envelope"]["abstract_blocks"] = [2, 1]

    def cb_above_one(o):
        o["envelope"]["embedding"]["cb_bound"] = 1.001

    def discrepancy(o):
        o["envelope"]["embedding"]["sampled_max_discrepancy"] = 1e-4

    for edit in (more_blocks, cb_above_one, discrepancy):
        assert checks.check_envelope_report(code, _report(text, edit), 2)


def test_boundary_report_check(tmp_path):
    gens = [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]
    path = tmp_path / "functions.json"
    path.write_text(inputs.function_file(gens))
    report = tmp_path / "functions.report.json"
    code, text, _ = workloads._run_cli(
        ["boundary", "--input", str(path), "--out", str(report), "--seed", "0"], report)
    assert checks.check_boundary_report(code, text, gens, 1) == []

    def mismatch(o):
        o["boundary"]["diagonal_crosscheck"]["matches"] = False

    def drop_point_from_both_routes(o):
        # consistent between the routes, so only the norming test sees it
        o["boundary"]["boundary_points"] = [[0]]
        o["boundary"]["diagonal_crosscheck"]["matrix_retained_points"] = [0]

    def drop_point_from_lp_route(o):
        o["boundary"]["boundary_points"] = [[0]]

    for edit in (mismatch, drop_point_from_both_routes, drop_point_from_lp_route):
        assert checks.check_boundary_report(code, _report(text, edit), gens, 1)
    problems = checks.check_boundary_report(
        code, _report(text, drop_point_from_both_routes), gens, 1)
    assert problems and problems[0].startswith("boundary not norming")
    assert checks.check_boundary_report(2, "", gens, 1)


@pytest.fixture(scope="module")
def queries():
    """A real loose envelope with one verdict of each kind."""
    rng = np.random.default_rng(11)
    gens = inputs.real_loose_instance(rng, a=2, b=inputs.UNITIZE_LOOSE_B)
    env = envelope.compute_envelope(stargen.validate_space(gens), seed=0)
    data = checks.EnvelopeData.of(env)
    positives = selftest.compressed_positives(env, gens)
    found = {}
    for name, kind in (("planted", "planted"), ("separated", "separated"),
                       ("scalar_no", "indefinite")):
        elem = inputs.real_unitized_element(rng, env, positives, data.hb, kind, 2)
        found[name] = (elem, unitize.xplus_cone_member(env, elem))
    while found["planted"][1].certificate.get("u_zero"):
        # v itself is PSD: no witness to perturb, draw again
        elem = inputs.real_unitized_element(rng, env, positives, data.hb, "planted", 2)
        found["planted"] = (elem, unitize.xplus_cone_member(env, elem))
    assert "dual_witness" in found["separated"][1].certificate
    assert "scalar_part_min_eig" in found["scalar_no"][1].certificate
    return env, data, found


def test_xplus_yes_check_rejects_perturbed_witness(queries):
    env, data, found = queries
    elem, verdict = found["planted"]
    assert checks.check_xplus(verdict, data, elem, expected=unitize.MEMBER_YES) == []
    grown = copy.deepcopy(verdict)
    for eps in grown.certificate["witness_u"]:
        grown.certificate["witness_u"][eps] = 3.0 * grown.certificate["witness_u"][eps]
    assert checks.check_xplus(grown, data, elem, expected=unitize.MEMBER_YES)
    missing = copy.deepcopy(verdict)
    missing.certificate["witness_u"].pop(min(missing.certificate["witness_u"]))
    assert checks.check_xplus(missing, data, elem, expected=unitize.MEMBER_YES)
    flipped = copy.deepcopy(verdict)
    flipped.member = unitize.MEMBER_NO
    assert checks.check_xplus(flipped, data, elem, expected=unitize.MEMBER_YES)
    inconclusive = copy.deepcopy(verdict)
    inconclusive.member = unitize.MEMBER_INCONCLUSIVE
    assert checks.check_xplus(inconclusive, data, elem, expected=None)


def test_xplus_no_check_rejects_a_functional_that_does_not_separate(queries):
    env, data, found = queries
    elem, verdict = found["separated"]
    assert checks.check_xplus(verdict, data, elem, expected=None) == []
    # the same functional against v shifted far into the positive cone
    n = data.n * elem.level
    shifted = unitize.UnitizedElement(
        level=elem.level,
        v_coords=inputs.level_coords(env, checks.amplify(elem.v_coords, data.basis)
                                     + 50.0 * np.eye(n), elem.level),
        scalar_part=elem.scalar_part)
    problems = checks.check_xplus(verdict, data, shifted, expected=None)
    assert problems and problems[0].startswith("separating functional fails")
    negated = copy.deepcopy(verdict)
    negated.certificate["dual_witness"] = [-b for b in negated.certificate["dual_witness"]]
    assert checks.check_xplus(negated, data, elem, expected=None)
    flipped = copy.deepcopy(verdict)
    flipped.member = unitize.MEMBER_YES
    assert checks.check_xplus(flipped, data, elem, expected=None)


def test_xplus_scalar_no_and_x1_checks(queries):
    env, data, found = queries
    elem, verdict = found["scalar_no"]
    assert checks.check_xplus(verdict, data, elem, expected=None) == []
    wrong = copy.deepcopy(elem)
    wrong.scalar_part = np.eye(elem.level)
    assert checks.check_xplus(verdict, data, wrong, expected=None)
    for name in ("planted", "separated", "scalar_no"):
        elem, _ = found[name]
        x1 = unitize.x1_cone_member(env, elem)
        assert checks.check_x1(x1, data, elem) == []
        flipped = copy.deepcopy(x1)
        flipped.member = (unitize.MEMBER_NO if x1.member == unitize.MEMBER_YES
                          else unitize.MEMBER_YES)
        assert checks.check_x1(flipped, data, elem)
    yes = unitize.ConeVerdict(member=unitize.MEMBER_YES)
    assert checks.check_xplus_in_x1(yes, unitize.ConeVerdict(member=unitize.MEMBER_NO))
    assert checks.check_xplus_in_x1(yes, yes) == []


def test_distance_and_domination_checks(queries):
    env, data, _ = queries
    space = env.compressed_space()
    dist = unitize.distance_to_unit(space, unit=unitize.UNIT_ENVELOPE, env=env)
    dom = unitize.dominating_element(space, unit=unitize.UNIT_ENVELOPE, env=env)
    assert checks.check_distance(dist, data) == []
    assert checks.check_domination(dom, dist, data) == []
    d, coeffs = dist
    nudged = coeffs.copy()
    nudged[0] += 1e-3
    assert checks.check_distance((d, nudged), data)
    assert checks.check_distance((d - 1e-3, coeffs), data)
    assert dom.found
    assert checks.check_domination(unitize.DominationResult(found=False), dist, data)
    shrunk = copy.deepcopy(dom)
    shrunk.coeffs = 0.5 * shrunk.coeffs
    assert checks.check_domination(shrunk, dist, data)
    assert checks.check_domination(dom, (1.0, coeffs), data)
