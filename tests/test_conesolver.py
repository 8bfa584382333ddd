import numpy as np
import pytest

from ncshilov import matcore
from ncshilov.conesolver import (
    CC_NO,
    CC_YES,
    FEASIBLE,
    INFEASIBLE,
    IPM_OPTIMAL,
    MARGINAL,
    ChoiAgreementProgram,
    ConicProgram,
    LinearMapSpec,
    _certified_cb_bound,
    _haar_coeffs,
    _hkm_max_scale,
    _paulsen_family,
    cc_test,
    minimize_opnorm,
    sampled_cb_lower_bound,
    solve_feasibility,
)
from ncshilov.errors import BadProgram, NonFinite
from ncshilov.matcore import herm_to_rvec


def _m2_basis():
    e = np.zeros((2, 2), dtype=complex)
    out = []
    for i in range(2):
        for j in range(2):
            m = e.copy()
            m[i, j] = 1.0
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# solve_feasibility
# ---------------------------------------------------------------------------


def _trace_row(n):
    return herm_to_rvec(np.eye(n))[None]


def test_feasible_trace_one():
    prog = ConicProgram([1], _trace_row(1), [1.0])
    out = solve_feasibility(prog, 1e-8)
    assert out.status == FEASIBLE
    assert out.primal_point[0][0, 0].real == pytest.approx(1.0, abs=1e-7)


def test_infeasible_negative_trace():
    prog = ConicProgram([2], _trace_row(2), [-1.0])
    out = solve_feasibility(prog, 1e-8)
    assert out.status == INFEASIBLE
    # witness: nonpositive on the cone, strictly positive on the affine set
    assert out.witness_cone_residual <= 1e-7
    assert out.witness_margin > 1e-5


def test_planted_feasible_recovery():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        planted = matcore.random_psd(rng, n) + 0.1 * np.eye(n)
        fs = [matcore.random_hermitian(rng, n) for _ in range(int(rng.integers(1, 4)))]
        rhs = [float(np.real(matcore.hs_inner(planted, f))) for f in fs]
        out = solve_feasibility(ConicProgram([n], herm_to_rvec(np.array(fs)), rhs), 1e-8)
        assert out.status == FEASIBLE
        x = out.primal_point[0]
        for f, b in zip(fs, rhs):
            assert np.real(matcore.hs_inner(x, f)) == pytest.approx(b, abs=1e-6)
        assert matcore.psd_check(x, tol=1e-8).positive


def test_bad_program_shapes():
    rows = _trace_row(2)
    with pytest.raises(BadProgram, match=r"not \(m, 4\)"):
        ConicProgram([2], herm_to_rvec(np.eye(3))[None], [0.0])
    with pytest.raises(BadProgram, match=r"not \(m, 5\)"):
        ConicProgram([2, 1], rows, [0.0])
    with pytest.raises(BadProgram, match=r"not \(m, 4\)"):
        ConicProgram([2], rows[0], [0.0])
    with pytest.raises(BadProgram, match="right-hand sides"):
        ConicProgram([2], rows, [1.0, 2.0])
    with pytest.raises(BadProgram, match="objective"):
        ConicProgram([2], rows, [1.0], objective=np.zeros(3))
    with pytest.raises(BadProgram):
        solve_feasibility(ConicProgram([2], np.zeros((0, 4)), []), tol=1e-2)


def test_program_rejects_nonfinite_data():
    rows = _trace_row(2)
    for bad_rows, rhs, objective in ((np.where(rows > 0, np.nan, rows), [1.0], None),
                                     (rows, [np.inf], None),
                                     (rows, [1.0], np.full(4, np.nan))):
        with pytest.raises(NonFinite):
            ConicProgram([2], bad_rows, rhs, objective=objective)


def test_inconsistent_program_carries_its_unit_multiplier():
    # tr X = 1 and tr X = 2: y = (-1, 1) / sqrt 2 combines the constraints
    # into 0 = 1 / sqrt 2
    i2 = np.eye(2, dtype=complex)
    out = solve_feasibility(ConicProgram([2], np.concatenate([_trace_row(2)] * 2), [1.0, 2.0]))
    assert out.status == INFEASIBLE
    assert out.dual_witness is None and out.primal_point is None
    y = out.affine_multiplier
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-14)
    assert out.witness_cone_residual == pytest.approx(np.linalg.norm((y[0] + y[1]) * i2),
                                                      abs=1e-15)
    assert out.witness_cone_residual <= 1e-14
    assert out.witness_margin == pytest.approx(y[0] * 1.0 + y[1] * 2.0, abs=1e-15)
    assert out.witness_margin == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_never_contradictory_certificates():
    # one outcome only: a feasible point or a dual witness, never both
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        f = matcore.random_hermitian(rng, n)
        prog = ConicProgram([n], herm_to_rvec(f)[None], [float(rng.standard_normal())])
        out = solve_feasibility(prog, 1e-7)
        assert (out.primal_point is None) or (out.dual_witness is None)


# ---------------------------------------------------------------------------
# minimize_opnorm
# ---------------------------------------------------------------------------


def test_minimize_opnorm_identity_direction():
    val, coeffs = minimize_opnorm(np.diag([1.0, -1.0]).astype(complex),
                                  [np.eye(2, dtype=complex)])
    assert val == pytest.approx(1.0, abs=1e-6)
    assert abs(coeffs[0]) < 1e-4


def _grid_refine_2d(target, b1, b2, lo=-2.0, hi=2.0, rounds=8, pts=21):
    best = (np.inf, 0.0, 0.0)
    a_lo = b_lo = lo
    a_hi = b_hi = hi
    for _ in range(rounds):
        avals = np.linspace(a_lo, a_hi, pts)
        bvals = np.linspace(b_lo, b_hi, pts)
        for a in avals:
            for b in bvals:
                v = matcore.op_norm(target - a * b1 - b * b2)
                if v < best[0]:
                    best = (v, a, b)
        _, a0, b0 = best
        span_a = (a_hi - a_lo) / 4
        span_b = (b_hi - b_lo) / 4
        a_lo, a_hi = a0 - span_a, a0 + span_a
        b_lo, b_hi = b0 - span_b, b0 + span_b
    return best


def test_minimize_opnorm_matches_grid_oracle():
    g1 = np.diag([1, 0, 0.75]).astype(complex)
    g2 = np.diag([0, 1, 0.75]).astype(complex)
    target = np.eye(3, dtype=complex)
    oracle_val, oa, ob = _grid_refine_2d(target, g1, g2)
    assert oracle_val == pytest.approx(0.2, abs=1e-4)
    val, coeffs = minimize_opnorm(target, np.stack([g1, g2]), real_coeffs=True)
    assert val == pytest.approx(0.2, abs=1e-6)
    assert coeffs.real == pytest.approx([0.8, 0.8], abs=1e-4)


def test_minimize_opnorm_target_in_span():
    rng = np.random.default_rng(1)
    basis = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
    target = 0.3 * basis[0] - 1.2j * basis[1]
    val, _ = minimize_opnorm(target, basis)
    assert val <= 1e-6


def test_minimize_opnorm_never_exceeds_target_norm():
    rng = np.random.default_rng(2)
    for _ in range(4):
        target = matcore.random_complex(rng, (3, 3))
        basis = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
        val, _ = minimize_opnorm(target, basis)
        assert val <= matcore.op_norm(target) + 1e-9


# ---------------------------------------------------------------------------
# cc_test and the sampler
# ---------------------------------------------------------------------------


def test_cc_identity_map():
    basis = _m2_basis()
    res = cc_test(LinearMapSpec(basis, basis), tol=1e-7)
    assert res.verdict == CC_YES
    assert res.cb_estimate <= 1.0 + 1e-7


def test_cc_doubling_map():
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [2 * b for b in basis])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_NO
    assert res.level == 2
    assert matcore.op_norm(spec.element_level(res.violating_coeffs)) <= 1.0 + 1e-12
    assert matcore.op_norm(spec.apply_level(res.violating_coeffs)) >= 2.0 - 1e-8


def test_cc_transpose_level_two():
    basis = _m2_basis()
    res = cc_test(LinearMapSpec(basis, [b.T.copy() for b in basis]), tol=1e-7)
    assert res.verdict == CC_NO
    assert res.level == 2
    # verify the returned witness concretely
    spec = LinearMapSpec(basis, [b.T.copy() for b in basis])
    y = spec.element_level(res.violating_coeffs)
    img = spec.apply_level(res.violating_coeffs)
    assert matcore.op_norm(y) <= 1.0 + 1e-9
    assert matcore.op_norm(img) > 1.0 + 1e-7


def test_swap_witness_for_transpose():
    # the classical level-2 element: y_ij = E_ji has norm 1, image norm 2
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [b.T.copy() for b in basis])
    c = np.zeros((2, 2, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            c[i, j] = spec.coeffs_of(np.outer(np.eye(2)[j], np.eye(2)[i]))
    y = spec.element_level(c)
    assert matcore.op_norm(y) == pytest.approx(1.0, abs=1e-12)
    assert matcore.op_norm(spec.apply_level(c)) == pytest.approx(2.0, abs=1e-12)


def test_sampler_identity_bounded():
    basis = _m2_basis()
    spec = LinearMapSpec(basis, basis)
    assert sampled_cb_lower_bound(spec, 3, 600, seed=4) <= 1.0 + 1e-9


def test_sampler_doubling_reaches_two():
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [2 * b for b in basis])
    assert sampled_cb_lower_bound(spec, 1, 200, seed=4) >= 2.0 - 1e-9


def test_sampler_transpose_exceeds_three_halves():
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [b.T.copy() for b in basis])
    assert sampled_cb_lower_bound(spec, 2, 10_000, seed=4) >= 1.5


def test_cc_functional_exact():
    # trace/2 is contractive, trace is not (norm 2, attained at the identity)
    basis = _m2_basis()
    half = LinearMapSpec(basis, [np.array([[np.trace(b) / 2]]) for b in basis])
    res = cc_test(half, tol=1e-7)
    assert res.verdict == CC_YES
    full = LinearMapSpec(basis, [np.array([[np.trace(b)]]) for b in basis])
    res = cc_test(full, tol=1e-7)
    assert res.verdict == CC_NO
    assert res.violation_norm == pytest.approx(2.0, abs=1e-5)


def _witness_ratio(spec, res):
    """||psi_k(y)|| / ||y|| recomputed from a CC_NO witness."""
    y = spec.element_level(res.violating_coeffs)
    return matcore.op_norm(spec.apply_level(res.violating_coeffs)) / matcore.op_norm(y)


@pytest.mark.parametrize("c", [0.55, 0.7, 0.9])
def test_cc_dual_witness_attains_transpose_cb_norm(c):
    # the transpose on M_2 has cb-norm 2, so c times it has cb-norm 2c
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [c * b.T.copy() for b in basis])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_NO
    assert res.level == 2
    assert _witness_ratio(spec, res) == pytest.approx(2 * c, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cc_planted_excess_is_decided_at_level_q(seed):
    # a random map M_4 -> M_3 scaled so that its cb-norm is 1 + 1e-5, far
    # outside the tolerance band: the answer is No, with a level-3 witness
    # that attains the cb-norm
    rng = np.random.default_rng(seed)
    dom = [matcore.random_complex(rng, (4, 4)) for _ in range(4)]
    img = [matcore.random_complex(rng, (3, 3)) for _ in range(4)]
    gens, y0, y1, support = _paulsen_family(LinearMapSpec(dom, img))
    prog = ChoiAgreementProgram(gens, y0, y1, support)
    sol = _hkm_max_scale(*prog.rows())
    bound, _ = _certified_cb_bound(prog, sol.x, sol.s)
    target = 1.0 + 1e-5
    spec = LinearMapSpec(dom, [target / bound * y for y in img])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_NO
    assert res.level == 3
    assert _witness_ratio(spec, res) == pytest.approx(target, abs=1e-8)


def test_cc_not_implies_sampler_with_witness_seed():
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [1.5 * b.T.copy() for b in basis])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_NO
    lb = sampled_cb_lower_bound(spec, res.level, 50, seed=9,
                                extra_coeff_samples=[(res.level, res.violating_coeffs)])
    assert lb > 1.0 + 5e-8


def _reference_haar_coeffs(spec, k, g):
    """Coefficients of a Haar trial from its Gaussian g, block by block."""
    p = spec.p
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    c = np.empty((k, k, spec.dim), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            c[i, j] = spec.coeffs_of(q[i * p : (i + 1) * p, j * p : (j + 1) * p])
    return c


def _reference_sampled_cb_lower_bound(spec, max_level, samples, seed, extra=()):
    """The per-trial loop that sampled_cb_lower_bound replaced: same draws,
    one element and one norm at a time."""
    def element(c, basis):
        k, n = c.shape[0], basis.shape[1]
        return np.einsum("ijt,tab->iajb", c, basis).reshape(k * n, k * n)

    def ratio(c):
        nrm = float(np.linalg.norm(element(c, spec.on_domain), 2))
        if nrm < 1e-14:
            return 0.0
        return float(np.linalg.norm(element(c / nrm, spec.on_images), 2))

    rng = np.random.default_rng(seed)
    p = spec.p
    best = 0.0
    for k in range(1, max_level + 1):
        for trial in range(max(1, samples // max_level)):
            if trial % 2 == 0:
                c = matcore.random_complex(rng, (k, k, spec.dim))
            else:
                c = _reference_haar_coeffs(spec, k, matcore.random_complex(rng, (k * p, k * p)))
            best = max(best, ratio(c))
    for _k, c in extra:
        best = max(best, ratio(np.asarray(c, dtype=np.complex128)))
    return best


@pytest.mark.parametrize("max_level, samples", [(1, 7), (2, 10), (3, 15), (3, 2)])
def test_sampler_equals_the_per_trial_loop(max_level, samples):
    # p = 4 != q = 3; per-level counts 7, 5, 5 and 1 are odd, so a level
    # ends on a Gaussian trial, and the last case has no Haar trial at all
    rng = np.random.default_rng(37)
    dom = [matcore.random_complex(rng, (4, 4)) for _ in range(3)]
    img = [0.5 * matcore.random_complex(rng, (3, 3)) for _ in range(3)]
    spec = LinearMapSpec(dom, img)
    extra = [(2, matcore.random_complex(rng, (2, 2, 3))),
             (1, matcore.random_complex(rng, (1, 1, 3))),
             (2, np.zeros((2, 2, 3)))]
    for seed in (0, 5):
        assert sampled_cb_lower_bound(spec, max_level, samples, seed) == \
            _reference_sampled_cb_lower_bound(spec, max_level, samples, seed)
        assert sampled_cb_lower_bound(spec, max_level, samples, seed,
                                      extra_coeff_samples=extra) == \
            _reference_sampled_cb_lower_bound(spec, max_level, samples, seed, extra)
    # the Haar coefficients on their own, which the maximum could hide
    g = matcore.random_complex(rng, (5, 4 * max_level, 4 * max_level))
    assert np.array_equal(_haar_coeffs(spec, max_level, g),
                          np.stack([_reference_haar_coeffs(spec, max_level, gi) for gi in g]))


def test_cc_yes_implies_sampler_bounded():
    rng = np.random.default_rng(3)
    # random compression map: completely contractive by construction
    v = np.linalg.qr(matcore.random_complex(rng, (4, 4)))[0][:, :2]
    basis = [matcore.random_complex(rng, (4, 4)) for _ in range(3)]
    spec = LinearMapSpec(basis, [v.conj().T @ b @ v for b in basis])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_YES
    assert res.cb_estimate <= 1.0 + 1e-7
    assert sampled_cb_lower_bound(spec, 4, 800, seed=10) <= 1.0 + 1e-6


def test_choi_solve_bounds_known_cb_norms():
    # the certified bound is an upper bound, tight at the optimum: cb-norm
    # 2 for the transpose on M_2, 1/2 for half the identity and 1 for the
    # functional trace/2
    basis = _m2_basis()
    for images, cb in (([b.T.copy() for b in basis], 2.0),
                       ([0.5 * b for b in basis], 0.5),
                       ([np.array([[np.trace(b) / 2]]) for b in basis], 1.0)):
        gens, y0, y1, support = _paulsen_family(LinearMapSpec(basis, images))
        prog = ChoiAgreementProgram(gens, y0, y1, support)
        sol = _hkm_max_scale(*prog.rows())
        assert sol.status == IPM_OPTIMAL
        bound, residual = _certified_cb_bound(prog, sol.x, sol.s)
        assert cb - 1e-12 <= bound <= cb + 1e-8
        assert residual <= 1e-10


def test_two_block_objective_program_reaches_the_smaller_eigenvalue():
    # min Re tr(C1 X1) + Re tr(C2 X2) subject to tr X1 + tr X2 = 1 puts all
    # the weight on the smallest eigenvalue of either block
    rng = np.random.default_rng(17)
    for n1, n2 in ((2, 3), (3, 1), (4, 2)):
        c1, c2 = matcore.random_hermitian(rng, n1), matcore.random_hermitian(rng, n2)
        prog = ConicProgram([n1, n2], np.concatenate([_trace_row(n1), _trace_row(n2)], axis=1),
                            [1.0], objective=np.concatenate([herm_to_rvec(c1), herm_to_rvec(c2)]))
        out = solve_feasibility(prog, 1e-8)
        assert out.status == FEASIBLE
        best = min(np.linalg.eigvalsh(c1)[0], np.linalg.eigvalsh(c2)[0])
        assert out.objective_value == pytest.approx(best, abs=1e-7)
        x1, x2 = out.primal_point
        assert np.trace(x1).real + np.trace(x2).real == pytest.approx(1.0, abs=1e-8)
        assert matcore.psd_check(x1, tol=1e-12).positive
        assert matcore.psd_check(x2, tol=1e-12).positive
