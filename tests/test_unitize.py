import numpy as np
import pytest

from ncshilov import conesolver, matcore
from ncshilov.envelope import compute_envelope
from ncshilov.errors import InconclusiveAtTolerance, ShapeMismatch
from ncshilov.matcore import amplify, op_norm
from ncshilov.selftest import (
    compressed_positives,
    loose_instance,
    random_positive_level,
    random_unitized_element,
)
from ncshilov.stargen import validate_space
from ncshilov.unitize import (
    MEMBER_NO,
    MEMBER_YES,
    UNIT_AMBIENT,
    UNIT_ENVELOPE,
    UnitizedElement,
    _karn_fixed_constraints,
    _karn_program,
    build_x1,
    check_envelope_of_unitization,
    distance_to_unit,
    dominating_element,
    transport_witness,
    x1_cone_member,
    xplus_cone_member,
)


def _c3_env():
    g1 = np.diag([1, 0, 0.75]).astype(complex)
    g2 = np.diag([0, 1, 0.75]).astype(complex)
    x = validate_space([g1, g2])
    return x, compute_envelope(x, seed=0), g1, g2


def _coords(env, m, k=1):
    c = np.einsum("tab,ab->t", env.compressed_basis.conj(), m)
    return c.reshape(1, 1, -1) if k == 1 else c


# ---------------------------------------------------------------------------
# build_x1
# ---------------------------------------------------------------------------


def test_x1_scalar_space_is_unital():
    env = compute_envelope(validate_space([np.eye(2, dtype=complex)]), seed=0)
    x1 = build_x1(env)
    assert x1.unital
    assert x1.space.dim == 1


def test_x1_full_diagonal_image_is_unital():
    x = validate_space([np.diag([1, 0, 0.5]).astype(complex),
                        np.diag([0, 1, 0.5]).astype(complex)])
    env = compute_envelope(x, seed=0)
    x1 = build_x1(env)
    assert x1.unital
    assert x1.space.dim == 2


def test_x1_adds_unit_in_c3():
    _, env, _, _ = _c3_env()
    x1 = build_x1(env)
    assert not x1.unital
    assert x1.space.dim == 3
    assert x1.space.contains(env.unit())


# ---------------------------------------------------------------------------
# x1 cone
# ---------------------------------------------------------------------------


def test_x1_scalar_part_only():
    _, env, _, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=np.zeros((1, 1, 2)),
                           scalar_part=np.eye(1))
    assert x1_cone_member(env, elem).member == MEMBER_YES


def test_x1_negative_multiple_in_scalar_space():
    env = compute_envelope(validate_space([np.eye(2, dtype=complex)]), seed=0)
    c = env.source.coeffs_of(np.eye(2))
    img_coords = np.einsum("tab,ab->t", env.compressed_basis.conj(),
                           np.einsum("t,tab->ab", c, env.compressed_basis))
    elem = UnitizedElement(level=1, v_coords=(-2 * img_coords).reshape(1, 1, -1),
                           scalar_part=np.eye(1))
    assert x1_cone_member(env, elem).member == MEMBER_NO


def test_x1_minus_g1_plus_unit():
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=-_coords(env, g1),
                           scalar_part=np.eye(1))
    assert x1_cone_member(env, elem).member == MEMBER_YES


def test_x1_rejects_non_selfadjoint():
    _, env, g1, _ = _c3_env()
    c = _coords(env, g1)
    with pytest.raises(ShapeMismatch):
        x1_cone_member(env, UnitizedElement(level=1, v_coords=c,
                                            scalar_part=1j * np.eye(1)))


# ---------------------------------------------------------------------------
# Karn cone
# ---------------------------------------------------------------------------


def _per_entry_karn_rows(hb, n, k, delta, v, r):
    """Reference Karn rows over [U, S1, S2], one Hermitian matrix per matrix
    entry: the diagonal, real and imaginary entry matrices f pair U minus
    its part in the selfadjoint part of M_k(X) with 0, S1 + U with
    (1 - delta) I, and S2 - R U R with v."""
    d = hb.shape[0]
    kn = k * n
    level = []
    for i in range(k):
        for j in range(i, k):
            for t in range(d):
                for w in ((1.0,) if i == j else (1.0, 1j)):
                    c = np.zeros((k, k, d), dtype=complex)
                    c[i, j, t] = w if i == j else w / np.sqrt(2)
                    c[j, i, t] = np.conj(c[i, j, t])
                    level.append(amplify(c, hb))
    entries = []
    for i in range(kn):
        for j in range(i, kn):
            for w in ((1.0,) if i == j else (0.5, 0.5j)):
                f = np.zeros((kn, kn), dtype=complex)
                f[i, j], f[j, i] = w, np.conj(w)
                entries.append(f)
    target = (1.0 - delta) * np.eye(kn)
    zero = np.zeros((kn, kn))
    rows, rhs = [], []
    for f in entries:
        pin = f - sum(np.vdot(b, f).real * b for b in level)
        rows.append((pin, zero, zero))
        rhs.append(0.0)
    for f in entries:
        rows.append((f, f, zero))
        rhs.append(np.vdot(f, target).real)
    for f in entries:
        rows.append((-r @ f @ r, zero, f))
        rhs.append(np.vdot(f, v).real)
    vec = np.array([np.concatenate([matcore.herm_to_rvec(m) for m in row]) for row in rows])
    return vec, np.array(rhs)


def test_karn_rows_hold_on_points_built_from_the_definition():
    # U Hermitian in M_k(X), S1 = (1 - delta) I - U and S2 = v + R U R meet
    # every row, and the rows span what the per-entry rows span
    rng = np.random.default_rng(0)
    n, k, delta = 3, 2, 1e-4
    kn = k * n
    hb = validate_space([matcore.random_hermitian(rng, n) for _ in range(2)]).hermitian_basis()
    r = matcore.random_psd(rng, kn)
    r /= op_norm(r)
    v = matcore.random_hermitian(rng, kn)
    prog = _karn_program(_karn_fixed_constraints(hb, n, k, delta), kn, v, r)
    ref_rows, ref_rhs = _per_entry_karn_rows(hb, n, k, delta, v, r)
    for _ in range(3):
        c = matcore.random_complex(rng, (k, k, hb.shape[0]))
        u = matcore.hermitize(amplify(c + c.conj().transpose(1, 0, 2), hb))
        point = np.concatenate([matcore.herm_to_rvec(h) for h in
                                (u, (1.0 - delta) * np.eye(kn) - u, v + r @ u @ r)])
        assert np.abs(prog.rows @ point - prog.rhs).max() <= 1e-12
        assert np.abs(ref_rows @ point - ref_rhs).max() <= 1e-12
    rank = np.linalg.matrix_rank(ref_rows)
    assert np.linalg.matrix_rank(prog.rows) == rank
    assert np.linalg.matrix_rank(np.concatenate([prog.rows, ref_rows])) == rank


def test_karn_positive_v_zero_scalar():
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=_coords(env, g1),
                           scalar_part=np.zeros((1, 1)))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_YES
    assert r.certificate.get("u_zero")


def test_karn_zero_v_positive_scalar():
    _, env, _, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=np.zeros((1, 1, 2)),
                           scalar_part=np.eye(1))
    assert xplus_cone_member(env, elem).member == MEMBER_YES


def test_karn_minus_g1_with_unit_scalar():
    # closed-form witness u = g1/(1+eps) satisfies the inequality exactly
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=-_coords(env, g1),
                           scalar_part=np.eye(1))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_YES
    # re-verify the stored witnesses at each eps
    hb = matcore.hermitian_part_basis(env.compressed_basis)
    for eps, coeffs in r.certificate["witness_u"].items():
        u = amplify(np.asarray(coeffs), hb)
        assert matcore.psd_check(matcore.hermitize(u, rtol=1e-7), tol=1e-6).positive
        assert op_norm(u) < 1.0
        v = amplify(elem.v_coords, env.compressed_basis)
        shifted = v + (1 + eps) * u
        assert matcore.psd_check(matcore.hermitize(shifted, rtol=1e-6),
                                 tol=1e-6).positive


def test_karn_indefinite_scalar_is_no():
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=_coords(env, g1),
                           scalar_part=-np.eye(1))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_NO
    assert "scalar_part_min_eig" in r.certificate


def test_karn_infeasible_with_dual_witness():
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=-2 * _coords(env, g1),
                           scalar_part=np.eye(1))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_NO
    assert "dual_witness" in r.certificate


def _karn_separation_slack(cert, v, a, k, hb, n, delta):
    """Slack of a Karn No certificate, re-checked from (v, A, eps, delta).

    The program at eps: U in the selfadjoint part of M_k(X), U >= 0,
    S1 = (1 - delta) - U >= 0, S2 = v + R U R >= 0.  A functional
    phi = (P_U, P_1, P_2) pairs with an affine point as c + <G, U> with
    c = (1 - delta) tr P_1 + <P_2, v> and G = P_U - P_1 + R P_2 R.  Any
    feasible point has tr U, tr S1 <= kn and tr S2 <= tr+ v + ||R||^2 kn,
    so a positive slack proves infeasibility."""
    kn = k * n
    pu, p1, p2 = (matcore.hermitize(np.asarray(b), rtol=1e-8) for b in cert["dual_witness"])
    w, u = np.linalg.eigh(a + cert["eps"] * np.eye(k))
    r = np.kron((u * np.sqrt(w)) @ u.conj().T, np.eye(n))
    c = (1.0 - delta) * np.trace(p1).real + np.vdot(p2, v).real
    g = pu - p1 + r @ p2 @ r
    level = []
    for i in range(k):
        for j in range(i, k):
            if i == j:
                e = np.zeros((k, k), dtype=complex)
                e[i, i] = 1.0
                level.extend(np.kron(e, h) for h in hb)
                continue
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            level.extend(np.kron(e, h) for h in hb)
            f = np.zeros((k, k), dtype=complex)
            f[i, j], f[j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            level.extend(np.kron(f, h) for h in hb)
    proj = np.linalg.norm(np.einsum("bxy,xy->b", np.asarray(level).conj(), g).real)
    gain = [max(0.0, np.linalg.eigvalsh(p)[-1]) for p in (pu, p1, p2)]
    tr_s2 = max(0.0, np.trace(v).real) + op_norm(r) ** 2 * kn
    return c - proj * np.sqrt(kn) - kn * (gain[0] + gain[1]) - gain[2] * tr_s2


@pytest.mark.parametrize("k, c", [(1, 2.0), (1, 1.5), (2, 2.0), (2, 3.0)])
def test_karn_no_certificate_passes_the_separation_recheck(k, c):
    # v = -c (1 ⊗ g1) with scalar part 1 needs u >= c g1 / (1 + eps), which
    # no u of norm below 1 satisfies at any scheduled eps
    _, env, g1, _ = _c3_env()
    coords = np.zeros((k, k, env.compressed_basis.shape[0]), dtype=complex)
    for i in range(k):
        coords[i, i] = -c * _coords(env, g1).reshape(-1)
    elem = UnitizedElement(level=k, v_coords=coords, scalar_part=np.eye(k))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_NO
    hb = matcore.hermitian_part_basis(env.compressed_basis)
    v = amplify(elem.v_coords, env.compressed_basis)
    slack = _karn_separation_slack(r.certificate, v, np.eye(k), k, hb,
                                   env.envelope_dim, r.delta)
    assert slack > 0


def test_karn_feasible_at_every_scheduled_eps_outside_the_limit_is_no():
    # u = c g1 / (1 + eps) is feasible at every scheduled eps, but
    # v + A ⊗ 1 = 1 - c g1 has the eigenvalue 1 - c < 0, which no eps > 0 allows
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=-1.0005 * _coords(env, g1),
                           scalar_part=np.eye(1))
    r = xplus_cone_member(env, elem)
    assert r.member == MEMBER_NO
    assert r.certificate["limit_min_eig"] == pytest.approx(-5e-4, abs=1e-9)


def test_karn_level_zero_consistency():
    rng = np.random.default_rng(3)
    _, env, g1, g2 = _c3_env()
    positives = compressed_positives(env, [np.diag([1, 0, 0.75]).astype(complex),
                                           np.diag([0, 1, 0.75]).astype(complex)])
    for _ in range(8):
        elem = random_unitized_element(rng, env, positives, level=1)
        elem = UnitizedElement(level=1, v_coords=elem.v_coords,
                               scalar_part=np.zeros((1, 1)))
        r = xplus_cone_member(env, elem)
        v = amplify(elem.v_coords, env.compressed_basis)
        direct = matcore.psd_check(matcore.hermitize(v, rtol=1e-7), tol=1e-7)
        if r.member == MEMBER_YES:
            assert direct.min_eig >= -1e-5
        if r.member == MEMBER_NO:
            assert not direct.positive


def test_karn_monotone_in_eps_by_transport():
    rng = np.random.default_rng(5)
    gens = loose_instance(rng, a=3, b=1)
    x = validate_space(gens)
    env = compute_envelope(x, seed=0)
    positives = compressed_positives(env, gens)
    hb = matcore.hermitian_part_basis(env.compressed_basis)
    checked = 0
    for _ in range(20):
        elem = random_unitized_element(rng, env, positives)
        r = xplus_cone_member(env, elem)
        wit = r.certificate.get("witness_u", {}) if r.member == MEMBER_YES else {}
        if not wit or r.certificate.get("u_zero"):
            continue
        eps_small, eps_big = min(wit), max(wit)
        if eps_big <= eps_small:
            continue
        moved = transport_witness(wit[eps_small], elem.scalar_part,
                                  eps_small, eps_big, hb)
        u = amplify(moved, hb)
        assert op_norm(u) <= op_norm(amplify(np.asarray(wit[eps_small]), hb)) + 1e-9
        root = matcore.herm_eig(np.asarray(elem.scalar_part)
                                + eps_big * np.eye(elem.level))
        checked += 1
    assert checked >= 1


def test_cone_sandwich_karn_inside_x1():
    rng = np.random.default_rng(7)
    gens = [matcore.random_psd(rng, 3) for _ in range(3)]
    env = compute_envelope(validate_space(gens), seed=0)
    positives = compressed_positives(env, gens)
    yes = 0
    for _ in range(25):
        elem = random_unitized_element(rng, env, positives)
        karn = xplus_cone_member(env, elem)
        if karn.member == MEMBER_YES:
            yes += 1
            assert x1_cone_member(env, elem, tol=1e-7).member == MEMBER_YES
    assert yes >= 3


# ---------------------------------------------------------------------------
# distance and domination
# ---------------------------------------------------------------------------


def test_distance_ambient_e11():
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    x = validate_space([e11])
    d, coeffs = distance_to_unit(x, unit=UNIT_AMBIENT)
    assert d == pytest.approx(1.0, abs=1e-7)
    assert not dominating_element(x, unit=UNIT_AMBIENT).found


def test_distance_raises_when_the_norm_solve_fails(monkeypatch):
    # a solver failure must not come back as the answer d(X, 1) = 1
    def marginal(program, tol=1e-7):
        return conesolver.SolveOutcome(status=conesolver.MARGINAL, diagnostics="forced")

    monkeypatch.setattr(conesolver, "solve_feasibility", marginal)
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    with pytest.raises(InconclusiveAtTolerance):
        distance_to_unit(validate_space([e11]), unit=UNIT_AMBIENT)


def test_distance_c3_is_one_fifth():
    x, env, _, _ = _c3_env()
    d, _ = distance_to_unit(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
    assert d == pytest.approx(0.2, abs=1e-4)
    dom = dominating_element(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
    assert dom.found
    hb = env.compressed_space().hermitian_basis()
    v = np.einsum("t,tab->ab", dom.coeffs.astype(complex), hb)
    assert matcore.psd_check(matcore.hermitize(v - env.unit(), rtol=1e-6),
                             tol=1e-5).positive


def _assert_tight_witness(dom, hb, unit):
    assert dom.found and not dom.inconclusive
    w = np.einsum("t,tab->ab", dom.coeffs.astype(complex), hb)
    assert np.linalg.eigvalsh(w - unit)[0] <= 1e-9
    assert not matcore.psd_check(matcore.hermitize(0.5 * w - unit, rtol=1e-6),
                                 tol=1e-7).positive


def test_dominating_witness_just_dominates_the_unit():
    _, env, _, _ = _c3_env()
    space = env.compressed_space()
    dom = dominating_element(space, unit=UNIT_ENVELOPE, env=env)
    _assert_tight_witness(dom, space.hermitian_basis(), env.unit())
    rng = np.random.default_rng(21)
    x = validate_space([matcore.random_psd(rng, 3) for _ in range(3)])
    dom = dominating_element(x, unit=UNIT_AMBIENT)
    _assert_tight_witness(dom, x.hermitian_basis(), np.eye(3))


def test_dominating_element_on_an_unbounded_program():
    # a diag(1, .5) dominates 1 for every a >= 2, whatever the sigma_x part
    x = validate_space([np.diag([1.0, 0.5]).astype(complex),
                        np.array([[0, 1], [1, 0]], dtype=complex)])
    dom = dominating_element(x, unit=UNIT_AMBIENT)
    _assert_tight_witness(dom, x.hermitian_basis(), np.eye(2))


@pytest.mark.parametrize("diagonals", [[(1.0, 0.0)], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]])
def test_no_dominating_element_is_conclusive(diagonals):
    # every element vanishes on the last coordinate, so none dominates 1
    x = validate_space([np.diag(d).astype(complex) for d in diagonals])
    dom = dominating_element(x, unit=UNIT_AMBIENT)
    assert not dom.found
    assert not dom.inconclusive


def test_distance_zero_when_unit_inside():
    env = compute_envelope(validate_space([np.eye(3, dtype=complex)]), seed=0)
    d, _ = distance_to_unit(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
    assert d <= 1e-7
    dom = dominating_element(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
    assert dom.found


def test_lemma_note_dichotomy_random():
    rng = np.random.default_rng(9)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        x = validate_space([matcore.random_hermitian(rng, n)])
        d, _ = distance_to_unit(x, unit=UNIT_AMBIENT)
        dom = dominating_element(x, unit=UNIT_AMBIENT)
        assert not dom.inconclusive
        assert (abs(d - 1.0) <= 1e-6) == (not dom.found)


def test_spanning_cone_consequence():
    rng = np.random.default_rng(11)
    for trial in range(4):
        n = int(rng.integers(2, 5))
        gens = [matcore.random_psd(rng, n) for _ in range(3)]
        env = compute_envelope(validate_space(gens), seed=trial)
        d, _ = distance_to_unit(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
        dom = dominating_element(env.compressed_space(), unit=UNIT_ENVELOPE, env=env)
        assert d < 1.0 - 1e-6
        assert dom.found


def test_positive_contraction_difference_bound():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        pair = []
        for _ in range(2):
            t = matcore.random_psd(rng, n)
            pair.append(t / max(op_norm(t), 1e-12) * rng.uniform(0, 1))
        worst = max(worst, op_norm(pair[0] - pair[1]))
    assert worst <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# envelope of the unitization
# ---------------------------------------------------------------------------


def test_envelope_of_x1_scalar_case():
    env = compute_envelope(validate_space([np.eye(2, dtype=complex)]), seed=0)
    rep = check_envelope_of_unitization(env, seed=1)
    assert rep["passed"]
    assert rep["x1_unital_flag"]


def test_envelope_of_x1_c3():
    _, env, _, _ = _c3_env()
    rep = check_envelope_of_unitization(env, seed=1)
    assert rep["passed"]
    assert rep["abstract_blocks_x1"] == (1, 1, 1)


def test_envelope_of_x1_generic_m5():
    rng = np.random.default_rng(15)
    x = validate_space([matcore.random_psd(rng, 5) for _ in range(3)])
    env = compute_envelope(x, seed=0)
    rep = check_envelope_of_unitization(env, seed=1)
    assert rep["passed"]
    assert rep["abstract_blocks_x1"] == (5,)
