import numpy as np
import pytest
import scipy.optimize
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
    real = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
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


def _sign_sup(vals, idx, others):
    """max of the point LP over both signs of the objective."""
    rows = np.stack([vals[o] for o in others])
    best = 0.0
    for sign in (1.0, -1.0):
        res = linprog(c=-sign * vals[idx], A_ub=np.concatenate([rows, -rows]),
                      b_ub=np.ones(2 * len(others)), bounds=[(None, None)] * vals.shape[1],
                      method="highs")
        assert res.status == 0
        best = max(best, -res.fun)
    return best


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
    calls = []
    real = scipy.optimize.milp
    monkeypatch.setattr(scipy.optimize, "milp",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    vals = fs.basis.T.real if is_real else fs.real_basis().T
    statuses = set()
    for idx in range(fs.points):
        others = [o for o in range(fs.points) if o != idx]
        calls.clear()
        sup, status = funcspace._point_sup(vals, idx, others, 1e-7)
        assert len(calls) == 1
        statuses.add(status)
        assert sup == pytest.approx(_sign_sup(vals, idx, others), abs=1e-9)
        if not is_real:  # the sup over complex coefficients, by an outer polygon
            upper = _polygon_sup(fs, idx, others)
            assert upper * np.cos(np.pi / 64) - 1e-9 <= sup <= upper + 1e-9
    assert "loose" in statuses and "essential" in statuses


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
