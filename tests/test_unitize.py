import numpy as np
import pytest

from ncshilov import conesolver, matcore, unitize
from ncshilov.envelope import compute_envelope
from ncshilov.errors import InconclusiveAtTolerance, ShapeMismatch
from ncshilov.matcore import amplify, hermitize, op_norm, psd_check, random_psd
from ncshilov.selftest import (
    _space_coords,
    compressed_positives,
    loose_instance,
    random_positive_level,
    random_unitized_element,
)
from ncshilov.stargen import cone_spans, validate_space
from ncshilov.unitize import (
    MEMBER_INCONCLUSIVE,
    MEMBER_NO,
    MEMBER_YES,
    UNIT_AMBIENT,
    UNIT_ENVELOPE,
    DEFAULT_DELTA,
    DEFAULT_EPS_SCHEDULE,
    UnitizedElement,
    _karn_f0,
    _karn_rows,
    _karn_separation,
    _level_basis,
    _psd_sqrt,
    _u_functional,
    _verify_karn_witness,
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


def _karn_root(rng, k, n):
    """R = (A + eps)^(1/2) ⊗ 1 for a random A >= 0 of norm one, eps 1e-3."""
    a = matcore.random_psd(rng, k)
    a /= op_norm(a)
    return np.kron(_psd_sqrt(a + 1e-3 * np.eye(k)), np.eye(n))


def test_karn_rows_hold_on_points_built_from_the_definition():
    # every point F0 + sum w_i F_i of the Karn family in w is (W, (1 - delta)
    # R^2 - W, v + W) with W in the selfadjoint part of M_k(X); congruence
    # by R^-1 on its first two blocks takes it to (U, (1 - delta) I - U,
    # v + R U R) with U = R^-1 W R^-1, which meets every per-entry row of
    # the definition; and the U so reached span exactly what the reference
    # pins leave free, so the family is the whole affine set of the rows
    rng = np.random.default_rng(0)
    n, k, delta = 3, 2, 1e-4
    kn = k * n
    hb = validate_space([matcore.random_hermitian(rng, n) for _ in range(2)]).hermitian_basis()
    r = _karn_root(rng, k, n)
    r_inv = np.linalg.inv(r)
    v = matcore.random_hermitian(rng, kn)
    f0, fs = _karn_f0(v, r, delta), _karn_rows(_level_basis(hb, k)[1])
    ref_rows, ref_rhs = _per_entry_karn_rows(hb, n, k, delta, v, r)
    m = k * k * hb.shape[0]
    assert all(f.shape == (m, kn, kn) for f in fs)
    for _ in range(3):
        w = rng.standard_normal(m)
        point = [c + np.einsum("i,iab->ab", w, f) for c, f in zip(f0, fs)]
        assert np.abs(point[1] - ((1.0 - delta) * r @ r - point[0])).max() <= 1e-12
        assert np.abs(point[2] - (v + point[0])).max() <= 1e-12
        u = r_inv @ point[0] @ r_inv
        moved = [u, r_inv @ point[1] @ r_inv, point[2]]
        assert np.abs(moved[1] - ((1.0 - delta) * np.eye(kn) - u)).max() <= 1e-12
        assert np.abs(moved[2] - (v + r @ u @ r)).max() <= 1e-12
        vec = np.concatenate([matcore.herm_to_rvec(h) for h in moved])
        assert np.abs(ref_rows @ vec - ref_rhs).max() <= 1e-12
    u_parts = matcore.herm_to_rvec(r_inv @ fs[0] @ r_inv)
    pins = ref_rows[: kn * kn, : kn * kn]
    assert np.linalg.matrix_rank(u_parts) == m
    assert np.abs(pins @ u_parts.T).max() <= 1e-12
    assert np.linalg.matrix_rank(pins) + m == kn * kn


def test_a_translated_functional_pairs_as_on_the_w_program():
    # a primal point X of the w-program, translated to (R X1 R, R X2 R, X3),
    # pairs with every u-point as X pairs with the w-point W = R U R, and
    # stays PSD blockwise
    rng = np.random.default_rng(1)
    n, k, delta = 3, 2, 1e-4
    kn = k * n
    hb = validate_space([matcore.random_hermitian(rng, n) for _ in range(2)]).hermitian_basis()
    r = _karn_root(rng, k, n)
    r_inv = np.linalg.inv(r)
    v = matcore.random_hermitian(rng, kn)
    f0, fs = _karn_f0(v, r, delta), _karn_rows(_level_basis(hb, k)[1])
    x = [matcore.random_psd(rng, kn) for _ in range(3)]
    x_u = _u_functional(x, r)
    assert all(np.linalg.eigvalsh(p)[0] >= -1e-12 * op_norm(p) for p in x_u)

    def pairing(a, b):
        return sum(np.vdot(av, bv).real for av, bv in zip(a, b))

    for _ in range(3):
        w = rng.standard_normal(fs[0].shape[0])
        w_point = [c + np.einsum("i,iab->ab", w, f) for c, f in zip(f0, fs)]
        u = r_inv @ w_point[0] @ r_inv
        u_point = [u, (1.0 - delta) * np.eye(kn) - u, v + r @ u @ r]
        assert pairing(x_u, u_point) == pytest.approx(pairing(x, w_point), rel=1e-12)


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


def _planted_element(rng, env, positives, k, member):
    """A planted Karn member v = w - R u0 R (R at the smallest scheduled eps,
    0 <= u0 of norm below 1, w = t (1 ⊗ s) with ||w|| at most 0.3 ||R u0 R||,
    so that v is never PSD and u = 0 never answers), or a planted non-member
    v = -c (1 ⊗ s) with c lambda_min(s) at least 1.5 ||A + eps|| at every
    scheduled eps, so v + R u R is negative definite whenever ||u|| <= 1;
    s is the sum of the positives, positive definite on the envelope."""
    n = env.envelope_dim
    a = matcore.random_hermitian(rng, k)
    a = a + (abs(np.linalg.eigvalsh(a)[0]) + rng.uniform(0.05, 1.0)) * np.eye(k)
    s = sum(positives)
    if member:
        u0 = random_positive_level(rng, positives, k)
        u0 *= rng.uniform(0.2, 0.8) / op_norm(u0)
        r = np.kron(_psd_sqrt(a + min(DEFAULT_EPS_SCHEDULE) * np.eye(k)), np.eye(n))
        shift = r @ u0 @ r
        t = rng.uniform(0.05, 0.3) * op_norm(shift) / op_norm(s)
        v = t * np.kron(np.eye(k), s) - shift
    else:
        reach = np.linalg.eigvalsh(a)[-1] + max(DEFAULT_EPS_SCHEDULE)
        v = -rng.uniform(1.5, 3.0) * reach / np.linalg.eigvalsh(s)[0] * np.kron(np.eye(k), s)
    return UnitizedElement(level=k, v_coords=_space_coords(env, v, k), scalar_part=a)


def test_planted_answers_carry_certificates_that_recheck():
    # Yes from the dual side: every witness passes the witness check; No from
    # the primal side: phi = -X / ||X|| is NSD, its margin is the c recomputed
    # from (v, eps, delta), and the separation re-check has positive slack
    rng = np.random.default_rng(17)
    spaces = [loose_instance(rng, a=3, b=1), [matcore.random_psd(rng, 3) for _ in range(3)]]
    answers = {True: 0, False: 0}
    for gens in spaces:
        env = compute_envelope(validate_space(gens), seed=0)
        positives = compressed_positives(env, gens)
        hb = matcore.hermitian_part_basis(env.compressed_basis)
        n = env.envelope_dim
        for k in (1, 2):
            for member in (True, True, False, False):
                elem = _planted_element(rng, env, positives, k, member)
                r = xplus_cone_member(env, elem)
                assert r.member == (MEMBER_YES if member else MEMBER_NO)
                answers[member] += 1
                v = amplify(elem.v_coords, env.compressed_basis)
                a = elem.scalar_part
                if member:
                    assert not r.certificate.get("u_zero")
                    assert set(r.certificate["witness_u"]) == set(r.eps_schedule_used)
                    for eps, coeffs in r.certificate["witness_u"].items():
                        root = np.kron(_psd_sqrt(a + eps * np.eye(k)), np.eye(n))
                        assert _verify_karn_witness(hb, coeffs, v, root, r.delta, r.tol, k)[0]
                    continue
                cert = r.certificate
                pu, p1, p2 = cert["dual_witness"]
                assert all(np.linalg.eigvalsh(p)[-1] <= 0 for p in (pu, p1, p2))
                c = (1.0 - r.delta) * np.trace(p1).real + np.vdot(p2, v).real
                assert cert["margin"] == pytest.approx(c, abs=1e-12)
                assert _karn_separation_slack(cert, v, a, k, hb, n, r.delta) > 0
    assert answers == {True: 8, False: 8}


def test_each_solve_has_one_row_per_coordinate(monkeypatch):
    # the Karn rows are written and prepared once per (envelope, level),
    # however many queries, Yes or No, follow; each Karn solve has k^2 d + 1
    # rows and records its iterations; the domination and distance programs
    # have d + 1 and the spanning-cone program d (its d - 1 trace-zero
    # coordinates and the trace row), as written and after orthonormalizing
    # (none of them is dependent)
    prepared, solved, iterations = [], [], []
    real_init, real_hkm = conesolver.MarginRows.__init__, conesolver._hkm

    def prepare(self, fs):
        prepared.append(fs[0].shape[0] + 1)
        real_init(self, fs)

    def hkm(f, b, c, stop=None):
        solved.append(b.size)
        sol = real_hkm(f, b, c, stop=stop)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(conesolver.MarginRows, "__init__", prepare)
    monkeypatch.setattr(conesolver, "_hkm", hkm)
    _, env, g1, _ = _c3_env()
    d = env.source.dim
    levels_seen = set()
    for k in (1, 2, 1, 2):
        prepared.clear()
        solved.clear()
        for c, member in ((0.5, MEMBER_YES), (2.0, MEMBER_NO), (0.75, MEMBER_YES)):
            coords = np.zeros((k, k, d), dtype=complex)
            for i in range(k):
                coords[i, i] = -c * _coords(env, g1).reshape(-1)
            elem = UnitizedElement(level=k, v_coords=coords, scalar_part=np.eye(k))
            r = xplus_cone_member(env, elem)
            assert r.member == member
            assert r.certificate["iterations"] == iterations[-1] > 0
        assert solved == [k * k * d + 1] * 3
        assert prepared == ([] if k in levels_seen else [k * k * d + 1])
        levels_seen.add(k)
    space = env.compressed_space()
    prepared.clear()
    solved.clear()
    assert dominating_element(space, unit=UNIT_ENVELOPE, env=env).found
    d_sa = space.hermitian_basis().shape[0]
    assert prepared == solved == [d_sa + 1]
    prepared.clear()
    solved.clear()
    assert distance_to_unit(space, unit=UNIT_ENVELOPE, env=env)[0] < 1.0
    assert prepared == solved == [d_sa + 1]
    prepared.clear()
    solved.clear()
    assert cone_spans(space).spans
    assert prepared == solved == [d_sa]


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
        a = hermitize(elem.scalar_part, rtol=1e-9)
        moved = transport_witness(wit[eps_small], a, eps_small, eps_big, hb)
        # the witness stored for the largest eps is this transport
        assert np.array_equal(moved, wit[eps_big])
        u = amplify(moved, hb)
        assert op_norm(u) <= op_norm(amplify(np.asarray(wit[eps_small]), hb)) + 1e-9
        # and it certifies v + R u R >= 0 at that eps
        root = np.kron(_psd_sqrt(a + eps_big * np.eye(elem.level)), np.eye(env.envelope_dim))
        v = hermitize(amplify(elem.v_coords, env.compressed_basis), rtol=1e-8)
        ok, why = _verify_karn_witness(hb, moved, v, root, DEFAULT_DELTA, 1e-7, elem.level)
        assert ok, why
        checked += 1
    assert checked >= 1


def _u_form_karn_solve(units, level, hb, v, big_root, delta, tol):
    """Karn's condition at one eps read off the definition, in u: maximize
    lambda subject to (U, (1 - delta) - U, v + R U R) - lambda I >= 0
    blockwise, U = sum_i u_i H_i over the level basis H_i, with the
    production witness check and separation bound as its certificates."""
    k, d, kn = units.shape[1], hb.shape[0], level.shape[1]
    root_norm = op_norm(big_root)

    def stop(u, lam, x):
        if lam > 0:
            coeffs = np.einsum("sij,st->ijt", units, u.reshape(k * k, d))
            if _verify_karn_witness(hb, coeffs, v, big_root, delta, tol, k)[0]:
                return MEMBER_YES, coeffs
        cert = _karn_separation(x, v, big_root, root_norm, level, delta)
        return None if cert is None else (MEMBER_NO, cert)

    f0 = [np.zeros((kn, kn)), (1.0 - delta) * np.eye(kn), v]
    return conesolver.solve_dual_margin(f0, [level, -level, big_root @ level @ big_root], stop)


def _per_eps_karn_member(env, elem, tol=1e-7):
    """The Karn verdict read literally off the definition: one u-form solve
    (:func:`_u_form_karn_solve`) per scheduled eps, No at the first eps
    without a witness, Yes when every eps has one and v + A ⊗ 1 >= 0 (the
    scalar-part check and the u = 0 shortcut as in production)."""
    k, n = elem.level, env.envelope_dim
    a = hermitize(elem.scalar_part, rtol=1e-9)
    if not psd_check(a, tol=tol).positive:
        return MEMBER_NO
    v_full = amplify(elem.v_coords, env.compressed_basis)
    v = hermitize(v_full, rtol=1e-8)
    if psd_check(v, tol=tol).positive:
        return MEMBER_YES
    hb = matcore.hermitian_part_basis(env.compressed_basis)
    units, level = _level_basis(hb, k)
    for eps in DEFAULT_EPS_SCHEDULE:
        root = np.kron(_psd_sqrt(a + eps * np.eye(k)), np.eye(n))
        sol = _u_form_karn_solve(units, level, hb, v, root, DEFAULT_DELTA, tol)
        if sol.stopped is None:
            return MEMBER_INCONCLUSIVE
        if sol.stopped[0] == MEMBER_NO:
            return MEMBER_NO
    limit = hermitize(v_full + np.kron(a, env.unit()), rtol=1e-8)
    return MEMBER_YES if psd_check(limit, tol=tol).positive else MEMBER_NO


def _criterion_06_elements():
    """The 30 x 100 (envelope, element) draws of the acceptance suite's
    criterion 6 (tests/test_acceptance.py), in the same order."""
    rng = np.random.default_rng(606)
    for i in range(30):
        if i % 2 == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
        else:
            n = int(rng.integers(2, 4))
            gens = [random_psd(rng, n) for _ in range(3)]
        env = compute_envelope(validate_space(gens), seed=i)
        positives = compressed_positives(env, gens)
        for _ in range(100):
            yield env, random_unitized_element(rng, env, positives)


def _unitize_test_elements():
    """The Karn Yes and No elements of this file: -c (1 ⊗ g1) with scalar
    part 1 on the C^3 example, and the planted members and non-members."""
    _, env, g1, _ = _c3_env()
    for k in (1, 2):
        for c in (0.5, 1.0, 1.0005, 1.5, 2.0, 3.0):
            coords = np.zeros((k, k, env.compressed_basis.shape[0]), dtype=complex)
            for i in range(k):
                coords[i, i] = -c * _coords(env, g1).reshape(-1)
            yield env, UnitizedElement(level=k, v_coords=coords, scalar_part=np.eye(k))
    rng = np.random.default_rng(17)
    spaces = [loose_instance(rng, a=3, b=1), [matcore.random_psd(rng, 3) for _ in range(3)]]
    for gens in spaces:
        env = compute_envelope(validate_space(gens), seed=0)
        positives = compressed_positives(env, gens)
        for k in (1, 2):
            for member in (True, True, False, False):
                yield env, _planted_element(rng, env, positives, k, member)


def test_one_solve_at_the_smallest_eps_matches_the_per_eps_loop():
    # the single solve at eps_min gives the verdict of one solve per eps;
    # every Yes witness (transported or solved) passes the production
    # witness check at its eps, and every No by separation is at eps_min
    # and passes the separation re-check
    eps_min = DEFAULT_EPS_SCHEDULE[-1]
    seen = {MEMBER_YES: 0, MEMBER_NO: 0, "separated": 0}
    for env, elem in [*_criterion_06_elements(), *_unitize_test_elements()]:
        r = xplus_cone_member(env, elem)
        assert r.member == _per_eps_karn_member(env, elem)
        seen[r.member] = seen.get(r.member, 0) + 1
        k, n = elem.level, env.envelope_dim
        hb = matcore.hermitian_part_basis(env.compressed_basis)
        v = hermitize(amplify(elem.v_coords, env.compressed_basis), rtol=1e-8)
        a = hermitize(elem.scalar_part, rtol=1e-9)
        if r.member == MEMBER_YES:
            assert list(r.certificate["witness_u"]) == list(DEFAULT_EPS_SCHEDULE)
            for eps, coeffs in r.certificate["witness_u"].items():
                root = np.kron(_psd_sqrt(a + eps * np.eye(k)), np.eye(n))
                assert _verify_karn_witness(hb, coeffs, v, root, r.delta, r.tol, k)[0]
        elif r.member == MEMBER_NO and "dual_witness" in r.certificate:
            seen["separated"] += 1
            assert r.certificate["eps"] == eps_min
            assert _karn_separation_slack(r.certificate, v, a, k, hb, n, r.delta) > 0
    assert seen[MEMBER_YES] >= 300 and seen["separated"] >= 100


def test_a_transported_witness_that_fails_is_inconclusive(monkeypatch):
    # the solved witness passes; its transport to the largest eps is made to
    # fail, which gives Inconclusive at that eps and no further solve
    real_solve, real_verify = unitize._karn_solve, unitize._verify_karn_witness
    solves = []

    def karn_solve(*args):
        solves.append(real_solve(*args))
        return solves[-1]

    def verify(*args):
        if solves:
            return False, "planted failure"
        return real_verify(*args)

    monkeypatch.setattr(unitize, "_karn_solve", karn_solve)
    monkeypatch.setattr(unitize, "_verify_karn_witness", verify)
    _, env, g1, _ = _c3_env()
    elem = UnitizedElement(level=1, v_coords=-_coords(env, g1), scalar_part=np.eye(1))
    r = xplus_cone_member(env, elem)
    assert len(solves) == 1 and solves[0].stopped[0] == MEMBER_YES
    assert r.member == MEMBER_INCONCLUSIVE
    assert r.certificate["iterations"] == solves[0].iterations
    eps_big = DEFAULT_EPS_SCHEDULE[0]
    assert r.certificate["eps"] == eps_big
    assert f"eps {eps_big:g}" in r.certificate["reason"]
    assert "planted failure" in r.certificate["reason"]


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
    # a solver failure must not come back as the answer d(X, 1) = 1: here
    # no iterate of the norm solve is accepted as certified
    real = conesolver.solve_dual_margin

    def uncertified(f0, fs, stop):
        sol = real(f0, fs, lambda u, lam, x: None)
        assert sol.stopped is None
        return sol

    monkeypatch.setattr(conesolver, "solve_dual_margin", uncertified)
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


def test_envelope_unit_queries_take_the_given_envelope_copy(monkeypatch):
    _, env, _, _ = _c3_env()
    space = env.compressed_space()
    monkeypatch.setattr(type(env), "compressed_space",
                        lambda self: pytest.fail("envelope copy rebuilt"))
    d, _ = distance_to_unit(space, unit=UNIT_ENVELOPE, env=env)
    assert d == pytest.approx(0.2, abs=1e-4)
    assert dominating_element(space, unit=UNIT_ENVELOPE, env=env).found
    # a third point that carries no norm is cut: the source space lives in
    # M_3, the envelope unit in M_2
    half = validate_space([np.diag([1, 0, 0.5]).astype(complex),
                           np.diag([0, 1, 0.5]).astype(complex)])
    env = compute_envelope(half, seed=0)
    assert env.envelope_dim == 2
    for query in (distance_to_unit, dominating_element):
        with pytest.raises(ShapeMismatch, match="envelope unit"):
            query(half, unit=UNIT_ENVELOPE, env=env)


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
