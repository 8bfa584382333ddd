import numpy as np
import pytest
from scipy.optimize import linprog

from ncshilov import conesolver, funcspace
from ncshilov.errors import ConeDoesNotSpan, ZeroSpace
from ncshilov.funcspace import (
    boundary,
    crosscheck_diagonal,
    diagonal_embedding,
    validate_function_space,
)
from ncshilov.selftest import random_function_space


def test_boundary_half_example():
    fs = validate_function_space([[1, 0, 0.5], [0, 1, 0.5]])
    b = boundary(fs)
    assert b.boundary_points == [(0,), (1,)]
    # the removed point's sup is certified at most one
    removed = [v for v in b.verdicts if v.status == "loose"]
    assert removed and removed[0].sup_value <= 1.0 + 1e-7


def test_boundary_full_function_algebra():
    # each point's evaluation lies outside the span of the others': the LP
    # is infeasible, sup = inf, and a function vanishing on the others
    # certifies it
    fs = validate_function_space(np.eye(3))
    b = boundary(fs)
    assert b.boundary_points == [(0,), (1,), (2,)]
    for v in b.verdicts:
        assert (v.status, v.certificate, v.sup_value) == ("essential", "kernel", np.inf)
        idx = b.classes.index(v.point_class)
        assert v.values[idx] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(v.values[list(v.others)]).max() <= v.residual <= funcspace.LP_ROUNDING


def test_boundary_three_quarters_example():
    fs = validate_function_space([[1, 0, 0.75], [0, 1, -0.75]])
    b = boundary(fs)
    assert b.boundary_points == [(0,), (1,), (2,)]
    v3 = [v for v in b.verdicts if v.point_class == (2,)][0]
    assert v3.sup_value == pytest.approx(1.5, abs=1e-6)


def test_boundary_requires_spanning_cone():
    # P1 = 0: nothing in the space sums to one, so the uniform measure is
    # orthogonal to it and the cone is {0}
    with pytest.raises(ConeDoesNotSpan) as info:
        boundary(validate_function_space([[1.0, -1.0]]))
    assert info.value.bound == -np.inf
    assert info.value.certificate == pytest.approx([0.5, 0.5], abs=1e-15)


def _spy_simplex(monkeypatch):
    """funcspace._simplex wrapped: the list of its results, in call order."""
    calls = []
    real = funcspace._simplex
    monkeypatch.setattr(funcspace, "_simplex", lambda *a: calls.append(real(*a)) or calls[-1])
    return calls


def test_boundary_nonspanning_cone_carries_its_measure_from_one_lp(monkeypatch):
    # f = (1, 0, 0) is positive somewhere, but no element is positive on
    # all three points: the measure (0, 1/2, 1/2) is orthogonal to the space
    calls = _spy_simplex(monkeypatch)
    fs = validate_function_space([[1, 0, 0], [0, 1, -1]])
    with pytest.raises(ConeDoesNotSpan) as info:
        boundary(fs)
    assert len(calls) == 1
    mu, bound = info.value.certificate, info.value.bound
    # re-checked from the space alone: a probability measure whose pairing
    # bound nu + rho on the smallest value of sum-one nonnegative elements
    # is at most the tolerance
    assert mu.min() >= 0 and abs(mu.sum() - 1.0) <= 1e-12
    rb = fs.real_basis()
    ones, mc = rb.sum(axis=1), rb @ mu
    nu = mc @ ones / (ones @ ones)
    assert nu + np.linalg.norm(mc - nu * ones) <= funcspace.CONE_TOL
    assert bound <= funcspace.CONE_TOL
    assert mu == pytest.approx([0.0, 0.5, 0.5], abs=1e-9)


def _sign_sup(vals, idx, others):
    """max of the point LP over both signs of the objective, by HiGHS.
    g = 0 is feasible, so a failed solve means an unbounded one: HiGHS
    reports some unbounded LPs as infeasible (status 2)."""
    rows = np.stack([vals[o] for o in others])
    best = 0.0
    for sign in (1.0, -1.0):
        res = linprog(c=-sign * vals[idx], A_ub=np.concatenate([rows, -rows]),
                      b_ub=np.ones(2 * len(others)), bounds=[(None, None)] * vals.shape[1],
                      method="highs")
        assert res.status in (0, 2, 3), res.message
        best = max(best, -res.fun if res.status == 0 else np.inf)
    return best


def _reference_status(sup, tol=1e-7):
    if sup <= 1.0 + tol:
        return "loose"
    return "essential" if sup > 1.0 + max(tol, funcspace.DECISION_BAND) else "inconclusive"


def _assert_matches_highs(fs):
    """Every point verdict of the space's boundary has the status and, to
    1e-9, the sup of the HiGHS reference on the same LP."""
    b = boundary(fs)
    rb = fs.basis.real if fs.is_real else fs.real_basis()
    vals = rb[:, [c[0] for c in b.classes]].T
    for v in b.verdicts:
        ref = _sign_sup(vals, b.classes.index(v.point_class), v.others)
        assert v.status == _reference_status(ref), (v, ref)
        assert v.sup_value == (np.inf if ref == np.inf else pytest.approx(ref, abs=1e-9))
    return b


def _polygon_sup(fs, idx, others, phases=64):
    """Upper bound on the sup over complex coefficients: the disks
    |f(o)| <= 1 replaced by their outer polygons over ``phases`` roots of
    unity, Re f(idx) maximized.  The true sup is at least cos(pi / phases)
    times it."""
    vals, d = fs.basis.T, fs.dim
    w = np.exp(2j * np.pi * np.arange(phases) / phases)
    disks = (np.conj(w)[None, :, None] * vals[others][:, None, :]).reshape(-1, d)
    res = linprog(c=-np.concatenate([vals[idx].real, -vals[idx].imag]),
                  A_ub=np.concatenate([disks.real, -disks.imag], axis=1),
                  b_ub=np.ones(disks.shape[0]), bounds=[(None, None)] * (2 * d),
                  method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("gens, is_real", [
    ([[1, 0, 0.75, 0.5], [0, 1, -0.75, 0.25]], True),
    ([[1, 1j, 0.3 + 0.3j, 2 + 1j]], False),  # with its conjugate, f(2) = 0.3 (f(0) + f(1))
])
def test_point_sup_is_one_lp(monkeypatch, gens, is_real):
    # one LP over the real part gives the sup: the ball is invariant under
    # f -> -f, and for complex spans Re(e^(-i theta) f) attains |f(idx)|
    fs = validate_function_space(gens)
    assert fs.is_real == is_real
    calls = _spy_simplex(monkeypatch)
    vals = fs.basis.T.real if is_real else fs.real_basis().T
    statuses = set()
    for idx in range(fs.points):
        others = [o for o in range(fs.points) if o != idx]
        calls.clear()
        verdict = funcspace._point_sup(vals, idx, others, 1e-7)
        assert len(calls) == 1 and calls[0].pivots == verdict.pivots
        sup, status = verdict.sup_value, verdict.status
        statuses.add(status)
        assert sup == pytest.approx(_sign_sup(vals, idx, others), abs=1e-9)
        if not is_real:  # the sup over complex coefficients, by an outer polygon
            upper = _polygon_sup(fs, idx, others)
            assert upper * np.cos(np.pi / 64) - 1e-9 <= sup <= upper + 1e-9
    assert "loose" in statuses and "essential" in statuses


def test_point_verdicts_match_highs_on_criterion5_and_complex_spaces():
    # criterion 5's corpus, then seeded complex spaces, some with fewer
    # functions than points and some with more
    rng = np.random.default_rng(505)
    spaces = [random_function_space(rng) for _ in range(100)]
    rng = np.random.default_rng(27)
    for _ in range(30):
        m = int(rng.integers(3, 10))
        d = int(rng.integers(1, min(m, 5) + 1))
        spaces.append(validate_function_space(
            rng.uniform(0.0, 1.0, (d, m)) + 1j * rng.uniform(-0.5, 0.5, (d, m))))
    statuses = set()
    for fs in spaces:
        statuses.update(v.status for v in _assert_matches_highs(fs).verdicts)
    assert statuses == {"loose", "essential"}


def test_point_sup_with_repeated_and_parallel_rows_matches_highs():
    # repeated and parallel rows among the others make the LP degenerate:
    # ties in the ratio test, which Bland's rule breaks without cycling
    rng = np.random.default_rng(8)
    for _ in range(10):
        base = rng.standard_normal((4, 3))
        vals = np.concatenate([base, base[:2], -0.5 * base[1:3], 2.0 * base[:1]])
        for idx in range(len(vals)):
            others = [o for o in range(len(vals)) if o != idx]
            verdict = funcspace._point_sup(vals, idx, others, 1e-7)
            ref = _sign_sup(vals, idx, others)
            assert verdict.status == _reference_status(ref)
            assert verdict.sup_value == pytest.approx(ref, abs=1e-9)


def test_fifty_point_space_matches_highs():
    b = _assert_matches_highs(random_function_space(np.random.default_rng(50), m=50, d=20))
    assert len(b.verdicts) >= 50


def test_complex_space_verdicts_match_its_real_part_and_the_matrix_pipeline():
    # two complex generators on five points, and two more points where
    # f = sum_j c_j f(p_j) with c >= 0 of sum 0.9: those two are loose
    rng = np.random.default_rng(41)
    for trial in range(4):
        base = rng.uniform(0.0, 1.0, (2, 5)) + 1j * rng.uniform(-0.5, 0.5, (2, 5))
        planted = rng.dirichlet(np.ones(5), size=2).T * 0.9
        fs = validate_function_space(np.concatenate([base, base @ planted], axis=1))
        assert not fs.is_real
        rep = crosscheck_diagonal(fs, seed=trial)
        assert rep["matches"], rep
        lp = rep["lp_result"]
        assert lp.boundary_points == [(p,) for p in range(5)]
        real_part = boundary(validate_function_space(fs.real_basis()))
        assert real_part.boundary_points == lp.boundary_points
        assert [(v.point_class, v.status) for v in real_part.verdicts] == \
            [(v.point_class, v.status) for v in lp.verdicts]
        for a, b in zip(real_part.verdicts, lp.verdicts):
            assert a.sup_value == pytest.approx(b.sup_value, rel=1e-7)


def test_boundary_single_point():
    fs = validate_function_space([[2.0]])
    assert boundary(fs).boundary_points == [(0,)]


def test_boundary_merges_unseparated_points():
    fs = validate_function_space([[1, 1, 0.3], [0.2, 0.2, 1]])
    b = boundary(fs)
    assert (0, 1) in b.classes
    assert b.point_map[0] == b.point_map[1]


def test_boundary_drops_vanishing_points():
    fs = validate_function_space([[1, 0, 0], [0, 1, 0]])
    b = boundary(fs)
    assert b.point_map[2] is None
    assert b.boundary_points == [(0,), (1,)]


def test_boundary_nonempty():
    rng = np.random.default_rng(0)
    for _ in range(5):
        fs = random_function_space(rng)
        assert len(boundary(fs).kept) >= 1


def test_zero_space_rejected():
    with pytest.raises(ZeroSpace):
        validate_function_space([[0.0, 0.0]])


def test_quotient_stability():
    # merging unseparated points first never changes later verdicts: the
    # collapsed space must give the same boundary as the raw one
    fs_raw = validate_function_space([[1, 1, 0, 0.5], [0, 0, 1, 0.5]])
    b = boundary(fs_raw)
    fs_merged = validate_function_space([[1, 0, 0.5], [0, 1, 0.5]])
    bm = boundary(fs_merged)
    raw_pts = {c for c in b.boundary_points}
    assert ((0, 1) in raw_pts) == ((0,) in {c for c in bm.boundary_points})
    assert len(b.kept) == len(bm.kept)


def test_diagonal_embedding_is_selfadjoint_space():
    fs = validate_function_space([[1, 1j, 0.0]])
    x = diagonal_embedding(fs)
    for b in x.basis:
        assert np.abs(b - np.diag(np.diagonal(b))).max() < 1e-12


def test_crosscheck_worked_examples():
    for gens in ([[1, 0, 0.5], [0, 1, 0.5]],
                 [[1, 0, 0.75], [0, 1, -0.75]],
                 np.eye(3).tolist()):
        rep = crosscheck_diagonal(validate_function_space(gens), seed=0)
        assert rep["matches"], rep


def test_crosscheck_single_point():
    rep = crosscheck_diagonal(validate_function_space([[1.0]]), seed=0)
    assert rep["matches"]


def test_lp_reported_infeasible_is_read_as_unbounded():
    # the benchmark's fault space, where HiGHS reports one of the point
    # LPs infeasible although g = 0 is feasible in each; point 1 is
    # essential
    fs = validate_function_space(
        random_function_space(np.random.default_rng(2), m=4, d=3).basis.real)
    assert boundary(fs).boundary_points == [(0,), (1,), (2,)]
    assert crosscheck_diagonal(fs, seed=0)["matches"]


def test_crosscheck_random_fuzz():
    rng = np.random.default_rng(3)
    for trial in range(6):
        fs = random_function_space(rng, m=6)
        rep = crosscheck_diagonal(fs, seed=trial)
        assert rep["matches"], rep


def test_complex_function_space_smoke():
    # conjugation-closed complex space: basis function with a phase
    fs = validate_function_space([[1, 1j, 0.2], [1, -1j, 0.2]])
    assert fs.dim == 2
    b = boundary(fs)
    assert len(b.kept) >= 1


def test_boundary_tests_each_essential_class_once():
    # removing points only relaxes a class's LP, so a class found Essential
    # is never tested again, and the kept classes are exactly those
    rng = np.random.default_rng(505)
    for _ in range(20):
        b = boundary(random_function_space(rng))
        essential = [v.point_class for v in b.verdicts if v.status == "essential"]
        assert len(essential) == len(set(essential))
        assert set(essential) <= set(b.boundary_points)
        if len(b.kept) > 1:
            assert sorted(essential) == sorted(b.boundary_points)


def test_crosscheck_solve_count_on_criterion_5(monkeypatch):
    # solve counts are deterministic: the first 20 spaces of criterion 5
    # (rng 505) made 118 interior-point solves through the diagonal
    # cross-check (98 of them the cc oracle's) before the oracle's
    # closed-form certificates, and make 36 with them (16 of them the
    # oracle's, one spanning-cone solve per space); a change that brings
    # solves back shows here
    solves = []
    real = conesolver._hkm
    monkeypatch.setattr(conesolver, "_hkm", lambda *a, **k: solves.append(1) or real(*a, **k))
    rng = np.random.default_rng(505)
    for i in range(20):
        assert crosscheck_diagonal(random_function_space(rng), seed=i)["matches"]
    assert len(solves) <= 36
