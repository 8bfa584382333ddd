import numpy as np
import pytest
from scipy.optimize import linprog

from ncshilov import funcspace
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
    fs = validate_function_space(np.eye(3))
    assert boundary(fs).boundary_points == [(0,), (1,), (2,)]


def test_boundary_three_quarters_example():
    fs = validate_function_space([[1, 0, 0.75], [0, 1, -0.75]])
    b = boundary(fs)
    assert b.boundary_points == [(0,), (1,), (2,)]
    v3 = [v for v in b.verdicts if v.point_class == (2,)][0]
    assert v3.sup_value == pytest.approx(1.5, abs=1e-6)


def test_boundary_requires_spanning_cone():
    with pytest.raises(ConeDoesNotSpan):
        boundary(validate_function_space([[1.0, -1.0]]))


def test_boundary_nonspanning_cone_carries_its_measure_from_one_lp(monkeypatch):
    # f = (1, 0, 0) is positive somewhere, but no element is positive on
    # all three points: the measure (0, 1/2, 1/2) is orthogonal to the space
    calls = []
    real = funcspace.linprog
    monkeypatch.setattr(funcspace, "linprog",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
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


def _own_sup(fs, vals, idx, others):
    """max of the point LP over both signs (real) or all PHASE_GRID phases
    of the objective (complex): the LPs the sup used to take."""
    if fs.is_real:
        rows = np.stack([vals[o].real for o in others])
        objectives = [s * vals[idx].real for s in (1.0, -1.0)]
        a_ub = np.concatenate([rows, -rows])
    else:
        phases = np.exp(2j * np.pi * np.arange(funcspace.PHASE_GRID) / funcspace.PHASE_GRID)
        disks = [np.conj(w) * vals[o] for o in others for w in phases]
        a_ub = np.stack([np.concatenate([r.real, -r.imag]) for r in disks])
        objectives = [np.concatenate([(np.conj(w) * vals[idx]).real,
                                      -(np.conj(w) * vals[idx]).imag]) for w in phases]
    best = 0.0
    for c in objectives:
        res = linprog(c=-c, A_ub=a_ub, b_ub=np.ones(a_ub.shape[0]),
                      bounds=[(None, None)] * a_ub.shape[1], method="highs")
        assert res.status == 0
        best = max(best, -res.fun)
    return best


@pytest.mark.parametrize("gens, is_real", [
    ([[1, 0, 0.75, 0.5], [0, 1, -0.75, 0.25]], True),
    ([[1, 1j, 0.3 + 0.3j, 2 + 1j]], False),  # with its conjugate, f(2) = 0.3 (f(0) + f(1))
])
def test_point_sup_is_one_lp(monkeypatch, gens, is_real):
    # the ball is invariant under f -> -f and under the phase-grid
    # rotations, so one LP gives the max over every sign or phase
    fs = validate_function_space(gens)
    assert fs.is_real == is_real
    calls = []
    real = funcspace.linprog
    monkeypatch.setattr(funcspace, "linprog",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    vals = fs.basis.T
    statuses = set()
    for idx in range(fs.points):
        others = [o for o in range(fs.points) if o != idx]
        calls.clear()
        sup, status = funcspace._point_sup(fs, vals, idx, others, 1e-7)
        assert len(calls) == 1
        statuses.add(status)
        own = _own_sup(fs, vals, idx, others)
        if is_real or status != "essential":
            assert sup == pytest.approx(own, abs=1e-9)
        else:  # a complex Essential reports the rescaled lower bound
            assert 1.0 + 1e-7 < sup <= own + 1e-9
    assert "loose" in statuses and "essential" in statuses


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
    # f = 0 is feasible in every point LP, yet HiGHS reports one of this
    # space's unbounded LPs as infeasible; point 1 is essential
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
