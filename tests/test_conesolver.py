import itertools

import numpy as np
import pytest

from ncshilov import blockdecomp, conesolver, envelope, matcore
from ncshilov.conesolver import (
    CC_NO,
    CC_YES,
    FEASIBLE,
    INFEASIBLE,
    IPM_NUMERICAL_FAILURE,
    IPM_OPTIMAL,
    MARGINAL,
    ConicProgram,
    LinearMapSpec,
    ROUTE_CHOI_BOUND,
    ROUTE_DUAL_WITNESS,
    ROUTE_GRADIENT_WITNESS,
    _cc_interior_point,
    _certified_cb_bound,
    _choi_rows,
    _closed_form_choi_point,
    _gradient_witness,
    _scale_rows,
    _dual_witness,
    _haar_coeffs,
    _hkm,
    _hkm_max_scale,
    cc_test,
    minimize_opnorm,
    sampled_cb_lower_bound,
    solve_feasibility,
)
from ncshilov.errors import BadProgram, DependentFamily, NonFinite, ShapeMismatch
from ncshilov.matcore import herm_to_rvec
from ncshilov.selftest import loose_instance
from ncshilov.stargen import validate_space


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
    with pytest.raises(BadProgram):
        solve_feasibility(ConicProgram([2], np.zeros((0, 4)), []), tol=1e-2)


def test_program_rejects_nonfinite_data():
    rows = _trace_row(2)
    for bad_rows, rhs in ((np.where(rows > 0, np.nan, rows), [1.0]), (rows, [np.inf])):
        with pytest.raises(NonFinite):
            ConicProgram([2], bad_rows, rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_margin_rows_reject_nonfinite_families(bad):
    # the margin program writes its own rows, so it checks them itself
    fs = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    conesolver.MarginRows([fs])
    fs[1, 0, 1] = fs[1, 1, 0] = bad
    with pytest.raises(NonFinite):
        conesolver.MarginRows([fs])
    with pytest.raises(NonFinite):
        conesolver.solve_dual_margin([np.eye(2)], [fs], lambda *_: None)


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
    val, coeffs = minimize_opnorm(target, np.stack([g1, g2]))
    assert val == pytest.approx(0.2, abs=1e-6)
    assert coeffs.real == pytest.approx([0.8, 0.8], abs=1e-4)


def test_minimize_opnorm_target_in_span():
    rng = np.random.default_rng(1)
    basis = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
    target = 0.3 * basis[0] - 1.2j * basis[1]
    # the complex span is the real span of the stack and i times it
    val, _ = minimize_opnorm(target, np.concatenate([basis, 1j * basis]))
    assert val <= 1e-6


def test_minimize_opnorm_never_exceeds_target_norm():
    rng = np.random.default_rng(2)
    for _ in range(4):
        target = matcore.random_complex(rng, (3, 3))
        basis = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
        val, _ = minimize_opnorm(target, np.concatenate([basis, 1j * basis]))
        assert val <= matcore.op_norm(target) + 1e-9


# ---------------------------------------------------------------------------
# LinearMapSpec's domain rule
# ---------------------------------------------------------------------------


def _dependency(dom):
    """The certificate LinearMapSpec refuses ``dom`` with: a unit c, and the
    norm of sum_t c_t D_t."""
    with pytest.raises(DependentFamily, match="dependent") as refused:
        LinearMapSpec(dom, dom)
    c = refused.value.certificate
    return c, np.linalg.norm(np.tensordot(c, np.asarray(dom), axes=1))


def test_map_spec_refuses_a_dependent_family():
    a, b, c, _ = _m2_basis()
    coeffs, residual = _dependency([a, b, a + 2 * b])
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-14)
    assert residual <= 1e-14
    # five members in the four dimensions of M_2: the dependency comes from
    # the full U, and the completion map's kernel verdict is that refusal
    rng = np.random.default_rng(4)
    dom = np.stack([matcore.random_complex(rng, (2, 2)) for _ in range(5)])
    coeffs, residual = _dependency(dom)
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-14)
    assert residual <= 1e-14 * np.linalg.norm(dom)
    spec, kernel = envelope._completion_map(dom, np.eye(2), _identity_block(2))
    assert spec is None
    assert np.linalg.norm(kernel) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(np.tensordot(kernel, dom, axes=1)) <= 1e-14 * np.linalg.norm(dom)


def _identity_block(p):
    """The one block of M_p, whose strip is the identity."""
    return blockdecomp.BlockInfo(projection=np.eye(p), k=p, m=1, copy=np.eye(p))


def _family_with_singular_values(rng, sv, p):
    """A family of len(sv) members of M_p whose flattened stack has the
    singular values ``sv``."""
    d = len(sv)
    u = np.linalg.qr(matcore.random_complex(rng, (d, d)))[0]
    v = np.linalg.qr(matcore.random_complex(rng, (p * p, d)))[0]
    return ((u * sv) @ v.conj().T).reshape(d, p, p)


@pytest.mark.parametrize("s_max", [0.5, 1.0, 30.0])
def test_map_spec_takes_the_completion_maps_rank_rule(s_max):
    # the cut is 1e-9 max(s_max, 1): a family just above it makes a map,
    # one just below it is refused with the dependency at its smallest
    # singular value, and the completion map's kernel verdict is that one
    # refusal, so the two cannot disagree
    rng = np.random.default_rng(8)
    cut = conesolver.DOMAIN_RANK_CUT[0] * max(s_max, 1.0)
    for factor, accepted in ((1.01, True), (0.99, False)):
        dom = _family_with_singular_values(rng, [s_max, 0.3, factor * cut], 3)
        lam, kernel = envelope._completion_map(dom, np.eye(3), _identity_block(3))
        assert (lam is not None) == accepted and (kernel is None) == accepted
        if not accepted:
            coeffs, residual = _dependency(dom)
            assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-14)
            assert residual == pytest.approx(factor * cut, rel=1e-5)
            assert np.linalg.norm(np.tensordot(kernel, dom, axes=1)) <= cut
            continue
        spec = LinearMapSpec(dom, dom)
        flat = dom.reshape(3, -1)
        # the domain is orthonormal and family_coeffs carries the family
        # onto it; the error is eps times the condition number, about 1e9
        on = spec.on_domain.reshape(3, -1)
        assert np.abs(on @ on.conj().T - np.eye(3)).max() <= 1e-12
        assert np.abs(spec.family_coeffs.T @ flat - on).max() <= 1e-6


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


def _attained_cb_norm(spec):
    """The cb-norm as the dual witness attains it at the optimum: the Choi
    solve run with no stop, then the witness read off its dual slack."""
    sol = _hkm_max_scale(*_choi_rows(spec))
    return _dual_witness(spec, sol.z)[1]


def _assert_no_contract(spec, res, tol, attained):
    """The cc_test contract for a No: level q, and a recomputed witness
    ratio above 1 + tol that is a lower bound for the cb-norm."""
    assert res.verdict == CC_NO and res.level == spec.q and res.residual is None
    assert 1.0 + tol < _witness_ratio(spec, res) <= attained + 1e-8


@pytest.mark.parametrize("c", [0.55, 0.7, 0.9])
def test_cc_dual_witness_attains_transpose_cb_norm(c):
    # the transpose on M_2 has cb-norm 2, so c times it has cb-norm 2c
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [c * b.T.copy() for b in basis])
    res = cc_test(spec, tol=1e-7)
    assert res.verdict == CC_NO
    assert res.level == 2
    assert _witness_ratio(spec, res) == pytest.approx(2 * c, abs=1e-8)


def _scaled_map(dom, img, target):
    """The map dom -> img scaled by target / (its certified bound at the
    optimum), so that its cb-norm is target."""
    spec = LinearMapSpec(dom, img)
    sol = _hkm_max_scale(*_choi_rows(spec))
    bound, _, _ = _certified_cb_bound(spec, sol.x, sol.s)
    return LinearMapSpec(dom, [target / bound * y for y in img])


def _planted_excess_map(seed, target):
    """A random map M_4 -> M_3 on a 4-dimensional domain, scaled to
    cb-norm target."""
    rng = np.random.default_rng(seed)
    dom = [matcore.random_complex(rng, (4, 4)) for _ in range(4)]
    img = [matcore.random_complex(rng, (3, 3)) for _ in range(4)]
    return _scaled_map(dom, img, target)


def _stall_map():
    """The third of three random (3, 2, 3) maps drawn from default_rng(1)."""
    rng = np.random.default_rng(1)
    maps = [([matcore.random_complex(rng, (3, 3)) for _ in range(3)],
             [matcore.random_complex(rng, (2, 2)) for _ in range(3)]) for _ in range(3)]
    return maps[2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cc_planted_excess_is_decided_at_level_q(seed):
    # a random map M_4 -> M_3 scaled so that its cb-norm is 1 + 1e-5, far
    # outside the tolerance band: the answer is No, with a level-3 witness
    # above 1 + tol; run to the optimum, the witness attains the cb-norm
    target = 1.0 + 1e-5
    spec = _planted_excess_map(seed, target)
    res = cc_test(spec, tol=1e-7)
    attained = _attained_cb_norm(spec)
    assert attained == pytest.approx(target, abs=1e-8)
    _assert_no_contract(spec, res, 1e-7, attained)


def test_cc_decides_a_map_whose_cb_norm_is_one_without_stalling():
    # the third of three random (3, 2, 3) maps, scaled to cb-norm 1 and just
    # above it: with unequal primal and dual step lengths these solves lost
    # centrality and ran into the iteration cap (Marginal at cb 1 and
    # 1 + 1e-6); the interior-point stage must now decide each, every solve
    # within 30 iterations, and cc_test gives the same verdicts
    dom, img = _stall_map()
    stall = LinearMapSpec(dom, img)
    sol = _hkm_max_scale(*_choi_rows(stall))
    assert sol.status == IPM_OPTIMAL and sol.iterations <= 30
    bound, _, _ = _certified_cb_bound(stall, sol.x, sol.s)
    for target in (1.0, 1.0 + 1e-5, 1.0 + 1e-6, 1.01):
        spec = LinearMapSpec(dom, [target / bound * y for y in img])
        res = _cc_interior_point(spec, tol=1e-7)
        assert 1 <= res.iterations <= 30
        assert cc_test(spec, tol=1e-7).verdict == res.verdict
        if target == 1.0:
            assert res.verdict == CC_YES
        else:
            attained = _attained_cb_norm(spec)
            assert attained == pytest.approx(target, abs=1e-8)
            _assert_no_contract(spec, res, 1e-7, attained)


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
        spec = LinearMapSpec(basis, images)
        sol = _hkm_max_scale(*_choi_rows(spec))
        assert sol.status == IPM_OPTIMAL
        bound, residual, _ = _certified_cb_bound(spec, sol.x, sol.s)
        assert cb - 1e-12 <= bound <= cb + 1e-8
        assert residual <= 1e-10


@pytest.mark.parametrize("singular", [False, True])
def test_certified_cb_bound_shifts_as_the_eigenvalue_path_does(monkeypatch, cholesky_answers,
                                                                singular):
    # the interior-point stage's certified Yes point of half the identity on
    # M_2, which is positive definite, and the same point with its smallest
    # eigenvalue set to 0, which needs the shift: the Cholesky test decides
    # the first alone, and (bound, residual, C) equals the eigenvalue path's
    # either way
    basis = _m2_basis()
    spec = LinearMapSpec(basis, [0.5 * b for b in basis])
    res = _cc_interior_point(spec, tol=1e-7)
    x, s = res.choi_point, res.scale
    if singular:
        w, u = np.linalg.eigh(x)
        x = matcore.hermitize((u[:, 1:] * w[1:]) @ u[:, 1:].conj().T)
    # the eigenvalue path's shift, written out
    n = x.shape[0]
    w = np.linalg.eigvalsh(x)
    delta = n * np.finfo(float).eps * np.abs(w).max()
    assert (w[0] < delta) == singular
    shifted = x + (delta - w[0]) * np.eye(n) if singular else x
    cholesky_answers.clear()  # the answers the solve asked for above
    bound, residual, c = _certified_cb_bound(spec, x, s)
    assert cholesky_answers == [not singular]
    assert np.array_equal(c, shifted)
    monkeypatch.setattr(matcore, "certified_above", lambda a, floor: False)
    eig_bound, eig_residual, eig_c = _certified_cb_bound(spec, x, s)
    assert (bound, residual) == (eig_bound, eig_residual)
    assert np.array_equal(c, eig_c)


def _completion_maps_of_criterion_4_instance_0(monkeypatch):
    """The maps cc_test decides while criterion 4's first space (rng 404)
    gets its envelope."""
    rng = np.random.default_rng(404)
    gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=int(rng.integers(1, 3)),
                          extra_blocks=int(rng.integers(0, 2)))
    specs = []
    real = conesolver.cc_test
    monkeypatch.setattr(conesolver, "cc_test",
                        lambda spec, **kw: specs.append(spec) or real(spec, **kw))
    envelope.compute_envelope(validate_space(gens), seed=0)
    return specs


def test_cc_yes_stops_at_its_first_certified_iterate(monkeypatch):
    # the identity on M_2 (cb-norm exactly 1), half of it, and the
    # completion maps of criterion 4's first instance: each interior-point
    # Yes comes from an iterate before the optimum, and each Yes of cc_test
    # from that stage or the closed-form point; both carry a Choi point and
    # s from which the bound is re-derived here
    basis = _m2_basis()
    specs = [LinearMapSpec(basis, basis), LinearMapSpec(basis, [0.5 * b for b in basis])]
    specs += _completion_maps_of_criterion_4_instance_0(monkeypatch)
    assert len(specs) == 4
    tol = 1e-7
    for spec, stage in itertools.product(specs, (_cc_interior_point, cc_test)):
        res = stage(spec, tol=tol)
        assert res.verdict == CC_YES and res.route == ROUTE_CHOI_BOUND
        if stage is _cc_interior_point:
            assert 1 <= res.iterations < _hkm_max_scale(*_choi_rows(spec)).iterations
        # the bound of _certified_cb_bound, written out from the carried
        # point's blocks [[C11, C12], [C12*, C22]]
        c, s = res.choi_point, res.scale
        n = c.shape[0]
        assert np.abs(c - c.conj().T).max() == 0.0
        w = np.linalg.eigvalsh(c)
        delta = n * np.finfo(float).eps * np.abs(w).max()
        if w[0] < delta:
            c = c + (delta - w[0]) * np.eye(n)
        p, q, pq = spec.p, spec.q, spec.p * spec.q
        eps = 0.0
        for blk in (c[:pq, :pq], c[pq:, pq:]):
            tr1 = sum(blk[k * q : (k + 1) * q, k * q : (k + 1) * q] for k in range(p))
            eps += np.linalg.norm(tr1 - np.eye(q), 2)
        c12 = c[:pq, pq:]
        for wt, yt in zip(spec.on_domain, spec.on_images):
            k12 = sum(wt[k, l] * c12[k * q : (k + 1) * q, l * q : (l + 1) * q]
                      for k in range(p) for l in range(p))
            eps += 2.0 * np.linalg.norm(wt, "nuc") * np.linalg.norm(k12 - s * yt, 2)
        bound = (1.0 + 2.0 * eps) / s
        assert bound <= 1.0 + tol
        assert bound == pytest.approx(res.cb_estimate, rel=1e-9)


def test_cc_no_stops_at_its_first_dual_witness():
    # 0.9 times the transpose on M_2, the doubling map and three planted
    # (4, 3, 4) maps: each No of the interior-point stage comes from the
    # first iterate whose dual slack gives a witness above 1 + tol, found
    # here by rerunning the solve without a stop, and reports that
    # witness's ratio as its cb_estimate
    basis = _m2_basis()
    specs = [LinearMapSpec(basis, [0.9 * b.T.copy() for b in basis]),
             LinearMapSpec(basis, [2 * b for b in basis])]
    specs += [_planted_excess_map(seed, 1.0 + 1e-5) for seed in (0, 1, 2)]
    tol = 1e-7
    for spec in specs:
        res = _cc_interior_point(spec, tol=tol)
        assert res.route == ROUTE_DUAL_WITNESS
        slacks = []
        sol = _hkm_max_scale(*_choi_rows(spec), stop=lambda x, s, z: slacks.append(z))
        assert res.iterations < sol.iterations
        first = next(k for k, z in enumerate(slacks)
                     if k > 0 and _dual_witness(spec, z)[1] > 1.0 + tol)
        assert res.iterations == first
        assert np.array_equal(res.violating_coeffs, _dual_witness(spec, slacks[first])[0])
        assert res.cb_estimate == res.violation_norm
        assert res.cb_estimate == pytest.approx(_witness_ratio(spec, res), rel=1e-12)
        _assert_no_contract(spec, res, tol, _dual_witness(spec, sol.z)[1])


def test_cc_no_stop_never_preempts_a_yes(monkeypatch):
    # with the No side disabled (every witness ratio 0) each Yes map of this
    # file and of criterion 4's first instance stops the interior-point
    # stage at the same iterate with the same certificate, bit for bit
    basis = _m2_basis()
    rng = np.random.default_rng(3)
    v = np.linalg.qr(matcore.random_complex(rng, (4, 4)))[0][:, :2]
    dom = [matcore.random_complex(rng, (4, 4)) for _ in range(3)]
    specs = [LinearMapSpec(basis, basis), LinearMapSpec(basis, [0.5 * b for b in basis]),
             LinearMapSpec(basis, [np.array([[np.trace(b) / 2]]) for b in basis]),
             LinearMapSpec(dom, [v.conj().T @ b @ v for b in dom]),
             _scaled_map(*_stall_map(), 1.0)]
    specs += _completion_maps_of_criterion_4_instance_0(monkeypatch)
    tol = 1e-7
    results = [_cc_interior_point(spec, tol=tol) for spec in specs]
    monkeypatch.setattr(conesolver, "_dual_witness", lambda spec, z: (None, 0.0))
    for spec, res in zip(specs, results):
        alone = _cc_interior_point(spec, tol=tol)
        assert res.verdict == alone.verdict == CC_YES
        assert (res.iterations, res.cb_estimate, res.residual, res.scale) == \
            (alone.iterations, alone.cb_estimate, alone.residual, alone.scale)
        assert np.array_equal(res.choi_point, alone.choi_point)


def test_choi_rows_are_the_block_program():
    # (p, q, d) = (3, 2, 3): exactly 2 q^2 (1 + d) = 32 independent rows on
    # the 2pq = 12 support indices
    rng = np.random.default_rng(8)
    dom = [matcore.random_complex(rng, (3, 3)) for _ in range(3)]
    img = [matcore.random_complex(rng, (2, 2)) for _ in range(3)]
    f, a, b = _choi_rows(LinearMapSpec(dom, img))
    assert f.shape == (32, 12, 12) and a.shape == b.shape == (32,)
    assert np.linalg.matrix_rank(herm_to_rvec(f)) == 32
    # the identity on M_2: its Choi matrix on M_4, sum_kl E_kl (x) E_kl, cut
    # to the support (k < 2) == (j < 2), satisfies the rows at s = 1 and
    # fails them at s = 1/2
    basis = _m2_basis()
    f, a, b = _choi_rows(LinearMapSpec(basis, basis))
    # C[(k, i), (l, j)] = delta_ki delta_lj
    choi = np.outer(np.eye(4).ravel(), np.eye(4).ravel())
    k, j = np.divmod(np.arange(16), 4)
    support = np.flatnonzero((k < 2) == (j < 2))
    c = choi[np.ix_(support, support)]
    lhs = np.einsum("iab,ab->i", f.conj(), c).real
    assert np.abs(lhs + a - b).max() <= 1e-14
    assert np.abs(lhs + a * 0.5 - b).max() > 0.1


@pytest.mark.parametrize("p, q, d", [(3, 2, 3), (2, 2, 4), (4, 1, 2), (2, 3, 1)])
def test_scale_rows_are_orthonormal_in_closed_form(p, q, d):
    # _scale_rows relies on _choi_rows' F rows being orthonormal; its rows
    # [F' | a'] are orthonormal too and cut out the same affine set
    rng = np.random.default_rng(10 * p + q + d)
    dom = [matcore.random_complex(rng, (p, p)) for _ in range(d)]
    img = [matcore.random_complex(rng, (q, q)) for _ in range(d)]
    f, a, b = _choi_rows(LinearMapSpec(dom, img))
    flat = herm_to_rvec(f)
    assert np.abs(flat @ flat.T - np.eye(f.shape[0])).max() <= 1e-14
    (f_on, a_on), b_on = _scale_rows(f, a, b)
    rows = np.concatenate([herm_to_rvec(f_on), a_on.reshape(-1, 1).real], axis=1)
    assert np.abs(rows @ rows.T - np.eye(f.shape[0])).max() <= 1e-14
    old = np.concatenate([flat, a[:, None]], axis=1)
    x = np.linalg.lstsq(old, b, rcond=None)[0]
    assert np.abs(rows @ x - b_on).max() <= 1e-12
    x = np.linalg.lstsq(rows, b_on, rcond=None)[0]
    assert np.abs(old @ x - b).max() <= 1e-12


def test_two_block_objective_program_reaches_the_smaller_eigenvalue():
    # maximize lambda with C1 - lambda I >= 0 and C2 - lambda I >= 0: the
    # smaller of the two smallest eigenvalues, and the trace-one primal
    # X = (X1, X2) puts all its weight there
    rng = np.random.default_rng(17)
    for n1, n2 in ((2, 3), (3, 1), (4, 2)):
        c1, c2 = matcore.random_hermitian(rng, n1), matcore.random_hermitian(rng, n2)
        seen = []
        sol = conesolver.solve_dual_margin(
            [c1, c2], [np.zeros((0, n1, n1)), np.zeros((0, n2, n2))],
            lambda u, lam, x: seen.append((lam, x)))
        assert sol.status == IPM_OPTIMAL
        lam, (x1, x2) = seen[-1]
        best = min(np.linalg.eigvalsh(c1)[0], np.linalg.eigvalsh(c2)[0])
        assert lam == pytest.approx(best, abs=1e-7)
        assert np.trace(x1).real + np.trace(x2).real == pytest.approx(1.0, abs=1e-8)
        assert matcore.psd_check(x1, tol=1e-12).positive
        assert matcore.psd_check(x2, tol=1e-12).positive


def test_nonfinite_schur_matrix_ends_the_solve_as_a_numerical_failure():
    # the stop test scales the first iterate in place to X = 1e308 I and
    # Z = 0.1 I, both finite and positive definite, so the Schur matrix
    # tr(F X F Z^-1) = 1e309 overflows; the solve must end there, without
    # an exception and without forming an iterate from it
    seen = []

    def stop(x, y, z, worst):
        seen.append(worst)
        if len(seen) == 1:
            x[0] *= 1e308
            z[0] *= 0.1

    f = [np.eye(2, dtype=complex)[None] / np.sqrt(2)]
    sol = _hkm(f, np.array([np.sqrt(2)]), [np.eye(2, dtype=complex)], stop=stop)
    assert sol.status == IPM_NUMERICAL_FAILURE
    assert sol.stopped is None
    assert sol.iterations == 1 and len(seen) == 1


@pytest.mark.parametrize("rhs", [1e200, 1e150])
def test_stop_test_never_sees_a_nonfinite_iterate(rhs):
    # tr X = 1e200 overflows the primal infeasibility at the start point
    # (||rp|| and 1 + ||b|| both read inf, their ratio NaN), and max() with
    # the NaN in second place would have hidden it; at 1e150 the iterates
    # themselves overflow after two steps
    seen = []

    def stop(x, y, z, worst):
        assert np.isfinite(worst)
        assert all(np.isfinite(v).all() for v in (*x, y, *z))
        seen.append(worst)

    f = [np.eye(2, dtype=complex)[None] / np.sqrt(2)]
    sol = _hkm(f, np.array([rhs]), [np.eye(2, dtype=complex)], stop=stop)
    assert sol.status == IPM_NUMERICAL_FAILURE
    assert sol.stopped is None
    assert len(seen) == sol.iterations


# ---------------------------------------------------------------------------
# closed-form certificates of cc_test
# ---------------------------------------------------------------------------


def _random_map(seed, p, q, d):
    rng = np.random.default_rng(seed)
    return LinearMapSpec([matcore.random_complex(rng, (p, p)) for _ in range(d)],
                         [matcore.random_complex(rng, (q, q)) for _ in range(d)])


@pytest.mark.parametrize("p, d", [(2, 1), (3, 2), (4, 3)])
def test_closed_form_point_of_a_functional_is_the_representers_trace_norm(p, d):
    # at q = 1, lam = 1/s is ||h||_1 for the HS representer
    # h = sum_t conj(phi(w_t)) w_t of the functional phi on the domain
    spec = _random_map(p + 10 * d, p, 1, d)
    _, s = _closed_form_choi_point(spec)
    h = np.einsum("t,tab->ab", spec.on_images[:, 0, 0].conj(), spec.on_domain)
    trace_norm = np.linalg.svd(h, compute_uv=False).sum()
    assert abs(1.0 / s - trace_norm) <= 1e-12 * trace_norm


def _partial_traces(c, p, q):
    """Tr_1 of the two diagonal pq x pq blocks of a 2pq Choi point."""
    return np.einsum("ikbikc->ibc", c.reshape(2, p, q, 2, p, q))


@pytest.mark.parametrize("p, q, d", [(3, 2, 3), (2, 3, 2), (4, 3, 4)])
def test_closed_form_point_meets_the_scaling_program(p, q, d):
    # a Hermitian PSD point with Tr_1 C_ii = I_q and K_t(C12) = s psi(w_t)
    # to rounding; without its diagonal pads the same point gets a larger
    # certified bound or residual
    spec = _random_map(p + 10 * q + 100 * d, p, q, d)
    c, s = _closed_form_choi_point(spec)
    pq = p * q
    assert np.array_equal(c, c.conj().T)
    assert np.linalg.eigvalsh(c)[0] >= -1e-14 * np.linalg.norm(c)
    assert np.abs(_partial_traces(c, p, q) - np.eye(q)).max() <= 1e-13
    k12 = np.einsum("tkl,kblc->tbc", spec.on_domain, c[:pq, pq:].reshape(p, q, p, q))
    assert np.abs(k12 - s * spec.on_images).max() <= 1e-13 * np.abs(spec.on_images).max()
    u, sv, vh = np.linalg.svd(c[:pq, pq:])
    bare = np.block([[(u * sv) @ u.conj().T, c[:pq, pq:]],
                     [c[pq:, :pq], (vh.conj().T * sv) @ vh]])
    assert np.abs(_partial_traces(bare, p, q) - np.eye(q)).max() > 1e-3
    bound, residual, _ = _certified_cb_bound(spec, c, s)
    bare_bound, bare_residual, _ = _certified_cb_bound(spec, bare, s)
    assert bare_bound > bound or bare_residual > residual


def _count_solves(monkeypatch):
    """The interior-point solves of the scaling program, counted."""
    solves = []
    real = conesolver._hkm_max_scale
    monkeypatch.setattr(conesolver, "_hkm_max_scale",
                        lambda *a, **k: solves.append(1) or real(*a, **k))
    return solves


def test_closed_forms_settle_the_transpose_and_the_identity(monkeypatch):
    # 0.9 times the transpose on M_2 (cb-norm 1.8) gets its No from the
    # gradient witness, the identity (cb-norm 1) its Yes from the
    # closed-form point, both without a solve
    basis = _m2_basis()
    solves = _count_solves(monkeypatch)
    transpose = LinearMapSpec(basis, [0.9 * b.T.copy() for b in basis])
    res = cc_test(transpose, tol=1e-7)
    assert (res.verdict, res.route, res.iterations, res.level) == \
        (CC_NO, ROUTE_GRADIENT_WITNESS, 0, 2)
    assert _witness_ratio(transpose, res) == pytest.approx(1.8, abs=1e-12)
    assert res.cb_estimate == _gradient_witness(transpose)[1]
    identity = LinearMapSpec(basis, basis)
    res = cc_test(identity, tol=1e-7)
    assert (res.verdict, res.route, res.iterations) == (CC_YES, ROUTE_CHOI_BOUND, 0)
    assert res.cb_estimate <= 1.0 + 1e-7 and res.residual <= 1e-12
    assert solves == []


@pytest.mark.parametrize("case", ["cb 1", "planted excess"])
def test_a_map_both_closed_forms_leave_open_gets_the_solves_verdict(monkeypatch, case):
    # a random (3, 2, 3) map at cb-norm 1 and a planted (4, 3, 4) map at
    # 1 + 1e-5: the gradient ratio is at most 1 and the closed-form bound
    # above 1.3, so cc_test runs the one solve and returns its verdict
    spec = _scaled_map(*_stall_map(), 1.0) if case == "cb 1" else \
        _planted_excess_map(0, 1.0 + 1e-5)
    assert _gradient_witness(spec)[1] <= 1.0
    assert 1.0 / _closed_form_choi_point(spec)[1] > 1.3
    solves = _count_solves(monkeypatch)
    res = cc_test(spec, tol=1e-7)
    assert len(solves) == 1
    alone = _cc_interior_point(spec, tol=1e-7)
    assert res.verdict == (CC_YES if case == "cb 1" else CC_NO)
    assert res.iterations >= 1
    assert (res.verdict, res.route, res.iterations, res.cb_estimate, res.residual) == \
        (alone.verdict, alone.route, alone.iterations, alone.cb_estimate, alone.residual)
