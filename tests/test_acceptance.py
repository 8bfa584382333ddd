"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import time
from collections import Counter

import numpy as np

from ncshilov import conesolver, matcore, stargen
from ncshilov.conesolver import (
    CC_NO,
    CC_YES,
    FEASIBLE,
    INFEASIBLE,
    MARGINAL,
    ROUTE_CHOI_BOUND,
    ROUTE_DUAL_WITNESS,
    ROUTE_GRADIENT_WITNESS,
    ConicProgram,
    LinearMapSpec,
    cc_test,
    sampled_cb_lower_bound,
    solve_feasibility,
)
from ncshilov.envelope import SCAN_ASCENDING_RANK, compute_envelope, induced_isomorphism
from ncshilov.funcspace import boundary, crosscheck_diagonal, validate_function_space
from ncshilov.matcore import op_norm, random_complex, random_psd
from ncshilov.selftest import (
    compressed_positives,
    dichotomy,
    envelope_discrepancy,
    karn_sandwich,
    lemma_note_examples,
    loose_instance,
    positive_contraction_pair,
    random_function_space,
    random_spanning_space,
    random_unitized_element,
    random_unitary,
)
from ncshilov.stargen import tro_equals_algebra, validate_space
from ncshilov.unitize import (
    MEMBER_INCONCLUSIVE,
    MEMBER_YES,
    UNIT_AMBIENT,
    UNIT_ENVELOPE,
    check_envelope_of_unitization,
)


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_generic_m5_recipe():
    rng = np.random.default_rng(101)
    good = 0
    runs = 0
    resamples = 0
    slowest = 0.0
    while runs < 20:
        gens = [random_psd(rng, 5) for _ in range(3)]
        x = validate_space(gens)
        alg = stargen.generate_star_algebra(x)
        if alg.dim != 25:
            resamples += 1  # measure-zero degeneracy: resample, not an error
            if resamples > 5:
                break
            continue
        t0 = time.monotonic()
        env = compute_envelope(x, seed=runs)
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        runs += 1
        if (env.abstract_blocks == (5,) and env.block_sizes == [(5, 1)]
                and env.eliminations() == 0 and dt < 10.0):
            good += 1
    _report(1, good >= 19 and runs == 20,
            f"{good}/20 runs gave one essential block M5, slowest {slowest:.2f}s, "
            f"{resamples} resamples")


def test_criterion_02_theorem_b_equality():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        x = random_spanning_space(rng, n)
        if not tro_equals_algebra(x):
            failures += 1
    dt = time.monotonic() - t0
    _report(2, failures == 0 and dt < 300.0,
            f"200/200 spanning-cone instances, TRO = algebra, {dt:.1f}s")


def test_criterion_03_embedding_certification():
    rng = np.random.default_rng(303)
    instances = [
        validate_space([np.diag([1, 0, 0.5]).astype(complex),
                        np.diag([0, 1, 0.5]).astype(complex)]),
        validate_space([np.diag([1, 0, 0.75]).astype(complex),
                        np.diag([0, 1, 0.75]).astype(complex)]),
        validate_space([np.eye(2, dtype=complex)]),
    ]
    for _ in range(5):
        instances.append(validate_space(loose_instance(
            rng, a=int(rng.integers(2, 4)), b=int(rng.integers(1, 3)))))
    for _ in range(4):
        n = int(rng.integers(2, 6))
        instances.append(validate_space([random_psd(rng, n) for _ in range(3)]))
    worst = 0.0
    for i, x in enumerate(instances):
        worst = max(worst, envelope_discrepancy(x, i, levels=4, samples=500,
                                                sample_seed=i + 1))
    _report(3, worst <= 1e-6,
            f"{len(instances)} envelopes, cc certified, "
            f"max sampled discrepancy {worst:.2e} over levels 1-4 x 500")


def test_criterion_04_uniqueness_up_to_isomorphism():
    rng = np.random.default_rng(404)
    bad = []
    for i in range(50):
        gens = loose_instance(rng, a=int(rng.integers(2, 4)),
                              b=int(rng.integers(1, 3)),
                              extra_blocks=int(rng.integers(0, 2)))
        x = validate_space(gens)
        env = compute_envelope(x, seed=i)
        env_rev = compute_envelope(x, seed=i, scan_order=SCAN_ASCENDING_RANK)
        if env.abstract_blocks != env_rev.abstract_blocks:
            bad.append((i, "scan-order block mismatch"))
            continue
        # the Shilov boundary ideal is unique: both maximal eliminations
        # remove exactly its blocks, so they leave the same q
        if np.abs(env.q - env_rev.q).max() > 1e-8:
            bad.append((i, "scan orders keep different projections"))
            continue
        iso1 = induced_isomorphism(env, env_rev, np.eye(x.dim))
        if not (iso1.found and iso1.residual <= 1e-6):
            bad.append((i, f"scan-order iso {iso1.reason}"))
            continue
        u = random_unitary(rng, gens[0].shape[0])
        x2 = validate_space([u @ g @ u.conj().T for g in gens])
        env2 = compute_envelope(x2, seed=i + 1000)
        t = np.empty((x2.dim, x.dim), dtype=complex)
        for j in range(x.dim):
            t[:, j] = x2.coeffs_of(u @ x.basis[j] @ u.conj().T)
        if env.abstract_blocks != env2.abstract_blocks:
            bad.append((i, "conjugated block mismatch"))
            continue
        iso2 = induced_isomorphism(env, env2, t)
        if not (iso2.found and iso2.residual <= 1e-6):
            bad.append((i, f"conjugated iso {iso2.reason}"))
    _report(4, not bad,
            f"50 instances x (reversed scan + unitary conjugate), "
            f"same boundary projection in both scan orders, "
            f"all isomorphic (failures: {bad[:3]})")


def test_criterion_05_commutative_cross_validation():
    rng = np.random.default_rng(505)
    fs0 = validate_function_space([[1, 0, 0.5], [0, 1, 0.5]])
    b0 = boundary(fs0)
    ok = b0.boundary_points == [(0,), (1,)]
    mismatches = 0
    for i in range(100):
        fs = random_function_space(rng)
        rep = crosscheck_diagonal(fs, seed=i)
        if not rep["matches"]:
            mismatches += 1
    _report(5, ok and mismatches == 0,
            f"worked example boundary {{1,2}} ok={ok}; "
            f"100/{100 - mismatches} random real spaces agree with the matrix pipeline")


def test_criterion_06_cone_sandwich():
    rng = np.random.default_rng(606)
    violations = 0
    transported_fail = 0
    yes_count = 0
    inconclusive = 0
    for i in range(30):
        kind = i % 2
        if kind == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
        else:
            n = int(rng.integers(2, 4))
            gens = [random_psd(rng, n) for _ in range(3)]
        env = compute_envelope(validate_space(gens), seed=i)
        positives = compressed_positives(env, gens)
        hb = matcore.hermitian_part_basis(env.compressed_basis)
        for _ in range(100):
            member, x1_ok, transport_ok = karn_sandwich(
                env, random_unitized_element(rng, env, positives), hb)
            inconclusive += member == MEMBER_INCONCLUSIVE
            yes_count += member == MEMBER_YES
            violations += not x1_ok
            transported_fail += not transport_ok
    _report(6, violations == 0 and transported_fail == 0 and yes_count >= 300,
            f"30 x 100 elements: {yes_count} Karn-Yes, {violations} X1 violations, "
            f"{transported_fail} monotonicity failures, {inconclusive} inconclusive")


def test_criterion_07_lemma_note_equivalence():
    rng = np.random.default_rng(707)
    failures = lemma_note_examples()
    for i in range(16):
        if i % 2 == 0:
            n = int(rng.integers(2, 6))
            space = validate_space([matcore.random_hermitian(rng, n)
                                    for _ in range(int(rng.integers(1, 3)))])
            mode, env = UNIT_AMBIENT, None
        else:
            n = int(rng.integers(2, 5))
            env = compute_envelope(
                validate_space([random_psd(rng, n) for _ in range(3)]), seed=i)
            space, mode = env.compressed_space(), UNIT_ENVELOPE
        _, _, why = dichotomy(space, mode, env)
        if why is not None:
            failures.append(f"case {i}: {why}")
    _report(7, not failures,
            f"18 instances: exactly one of d(X,1)=1 / dominator found "
            f"(failures: {failures[:3]})")


def test_criterion_08_envelope_of_unitization():
    rng = np.random.default_rng(808)
    bad = []
    for i in range(30):
        if i % 3 == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
        elif i % 3 == 1:
            n = int(rng.integers(2, 5))
            gens = [random_psd(rng, n) for _ in range(3)]
        else:
            n = int(rng.integers(2, 4))
            gens = [random_psd(rng, n) for _ in range(2)]
        env = compute_envelope(validate_space(gens), seed=i)
        rep = check_envelope_of_unitization(env, seed=i + 1)
        if not rep["passed"]:
            bad.append((i, rep["abstract_blocks_x"], rep["abstract_blocks_x1"]))
    _report(8, not bad,
            f"30 instances: envelope(X1) = envelope(X) with identity "
            f"identification (failures: {bad[:3]})")


def test_criterion_09_positive_contraction_inequality():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        t0, t1 = positive_contraction_pair(rng)
        worst = max(worst, op_norm(t0 - t1))
    _report(9, worst <= 1.0 + 1e-9,
            f"1000 positive-contraction pairs, max difference norm {worst:.12f}")


def _planted_feasible(rng):
    n = int(rng.integers(1, 6))
    planted = random_psd(rng, n) + 0.2 * np.eye(n)
    fs = np.array([matcore.random_hermitian(rng, n) for _ in range(int(rng.integers(1, 6)))])
    rhs = [float(np.real(matcore.hs_inner(planted, f))) for f in fs]
    return ConicProgram([n], matcore.herm_to_rvec(fs), rhs), True


def _planted_infeasible(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    fs = [matcore.random_hermitian(rng, n) for _ in range(m)]
    y = rng.standard_normal(m)
    while abs(y[0]) < 0.3:
        y = rng.standard_normal(m)
    total = sum(float(c) * f for c, f in zip(y, fs))
    top = float(np.linalg.eigvalsh(total)[-1])
    margin = rng.uniform(0.3, 1.0)
    fs[0] = fs[0] - ((top + margin) / y[0]) * np.eye(n)
    b_perp = rng.standard_normal(m)
    b_perp -= (b_perp @ y) / (y @ y) * y
    delta = rng.uniform(0.3, 1.0)
    b = y * delta / (y @ y) + b_perp
    return ConicProgram([n], matcore.herm_to_rvec(np.array(fs)), b), False


def test_criterion_10_solver_soundness_and_oracle_agreement():
    rng = np.random.default_rng(1010)
    wrong = 0
    marginal = 0
    for i in range(500):
        prog, feasible = _planted_feasible(rng) if i % 2 == 0 else _planted_infeasible(rng)
        out = solve_feasibility(prog, tol=1e-7)
        if out.status == MARGINAL:
            marginal += 1
        elif feasible and out.status == INFEASIBLE:
            wrong += 1
        elif not feasible and out.status == FEASIBLE:
            wrong += 1

    # cc_test versus the sampler on a small map corpus
    disagreements = 0
    e = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        e[idx][i, j] = 1.0
    corpus = [
        LinearMapSpec(e, e),
        LinearMapSpec(e, [2 * b for b in e]),
        LinearMapSpec(e, [0.5 * b for b in e]),
        LinearMapSpec(e, [b.T.copy() for b in e]),
        LinearMapSpec(e, [np.array([[np.trace(b)]]) for b in e]),
        LinearMapSpec(e, [np.array([[np.trace(b) / 2]]) for b in e]),
    ]
    for t in range(6):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        v = random_unitary(rng, n)[:, :r]
        dom = [random_complex(rng, (n, n)) for _ in range(int(rng.integers(1, 4)))]
        corpus.append(LinearMapSpec(dom, [v.conj().T @ b @ v for b in dom]))
    for t, spec in enumerate(corpus):
        res = cc_test(spec, tol=1e-7)
        if res.verdict == CC_YES:
            lb = sampled_cb_lower_bound(spec, max_level=2 * spec.p, samples=2000,
                                        seed=t + 50)
            if lb > 1.0 + 1e-5:
                disagreements += 1
        elif res.verdict == CC_NO:
            lb = sampled_cb_lower_bound(
                spec, max_level=res.level, samples=50, seed=t + 50,
                extra_coeff_samples=[(res.level, res.violating_coeffs)])
            if lb <= 1.0:
                disagreements += 1
        else:
            disagreements += 1
    _report(10, wrong == 0 and marginal < 10 and disagreements == 0,
            f"500 planted programs: {wrong} wrong certificates, {marginal} marginal "
            f"({100 * marginal / 500:.1f}%); cc vs sampler disagreements: {disagreements}")


def test_cc_closed_forms_give_the_interior_point_verdicts(monkeypatch):
    # every cc map that criteria 3, 4, 5 and 10 build, re-run through those
    # criteria with cc_test wrapped: its verdict is the interior-point
    # stage's alone, a closed-form Yes has a certified bound of at most
    # 1 + tol, and a gradient No a recomputed ratio above 1 + tol and at
    # most the cb-norm that stage attains at its optimum
    real = conesolver.cc_test
    settled = Counter()

    def checked(spec, tol=1e-7):
        res = real(spec, tol=tol)
        assert res.verdict == conesolver._cc_interior_point(spec, tol=tol).verdict
        if res.iterations == 0 and res.route == ROUTE_CHOI_BOUND:
            assert res.verdict == CC_YES and res.cb_estimate <= 1.0 + tol
        if res.route == ROUTE_GRADIENT_WITNESS:
            c = res.violating_coeffs
            ratio = op_norm(spec.apply_level(c)) / op_norm(spec.element_level(c))
            sol = conesolver._hkm_max_scale(*conesolver._choi_rows(spec))
            assert 1.0 + tol < ratio <= conesolver._dual_witness(spec, sol.z)[1] + 1e-8
        settled[res.route, res.iterations == 0] += 1
        return res

    monkeypatch.setattr(conesolver, "cc_test", checked)
    monkeypatch.setitem(globals(), "cc_test", checked)
    for criterion in (test_criterion_03_embedding_certification,
                      test_criterion_04_uniqueness_up_to_isomorphism,
                      test_criterion_05_commutative_cross_validation,
                      test_criterion_10_solver_soundness_and_oracle_agreement):
        criterion()
    # both closed forms settle maps, and the rest reach the solve
    assert settled[ROUTE_CHOI_BOUND, True] and settled[ROUTE_GRADIENT_WITNESS, True]
    assert settled[ROUTE_CHOI_BOUND, False] and settled[ROUTE_DUAL_WITNESS, False]
