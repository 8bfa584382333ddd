"""Property suites of the CLI selftest, and the instance generators and
per-instance property checks that the acceptance tests share with them.

Each suite is deterministic given its seed and returns a pass/fail line;
the quick profile is sized to run in well under a minute, the full profile
matches the acceptance-scale instance counts.  The acceptance criteria draw
their own instances from their own seeds and counts, and judge each
instance with the same property function as the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ncshilov import envelope as envelope_mod
from ncshilov import funcspace as funcspace_mod
from ncshilov import matcore, stargen, unitize
from ncshilov.matcore import op_norm, random_complex, random_psd
from ncshilov.stargen import MatrixSpace, validate_space


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Instance generators (also used by the test suite)
# ---------------------------------------------------------------------------


def random_unitary(rng, n):
    g = random_complex(rng, (n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_spanning_space(rng, n, ngens=None) -> MatrixSpace:
    """Span of random PSD generators: the cone spans by construction."""
    if ngens is None:
        ngens = int(rng.integers(2, min(6, n * n // 2) + 1))
    return validate_space([random_psd(rng, n) for _ in range(ngens)])


def loose_instance(rng, a=3, b=2, ngens=3, conjugate=True, extra_blocks=0):
    """Positive generators g ⊕ V* g V (V an isometry), so the second block
    never contributes to any norm and is provably loose; optionally more
    compressed copies and a random unitary conjugation to hide the
    structure.  The envelope is M_a."""
    sizes = [b] + [int(rng.integers(1, b + 1)) for _ in range(extra_blocks)]
    vs = [random_unitary(rng, a)[:, :s] for s in sizes]
    total = a + sum(sizes)
    gens = []
    for _ in range(ngens):
        g = random_psd(rng, a)
        big = np.zeros((total, total), dtype=np.complex128)
        big[:a, :a] = g
        off = a
        for v in vs:
            s = v.shape[1]
            big[off : off + s, off : off + s] = v.conj().T @ g @ v
            off += s
        gens.append(big)
    if conjugate:
        u = random_unitary(rng, total)
        gens = [u @ g @ u.conj().T for g in gens]
    return gens


def random_function_space(rng, m=None, d=None) -> funcspace_mod.FunctionSpace:
    """Real span of nonnegative generators on at most 8 points."""
    if m is None:
        m = int(rng.integers(3, 9))
    if d is None:
        d = int(rng.integers(2, min(m, 5) + 1))
    gens = rng.uniform(0.0, 1.0, size=(d, m))
    return funcspace_mod.validate_function_space(gens)


def _space_coords(env, matrix, k=1):
    """(k, k, d) expansion coordinates of a level-k matrix over the
    compressed basis (which is not orthonormal; solved by least squares)."""
    n = env.envelope_dim
    d = env.source.dim
    flat = env.compressed_basis.reshape(d, -1).T
    coords = np.zeros((k, k, d), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            block = matrix[i * n : (i + 1) * n, j * n : (j + 1) * n]
            coords[i, j] = np.linalg.lstsq(flat, block.reshape(-1), rcond=None)[0]
    return coords


def compressed_positives(env, generators):
    """Images of PSD generators in the envelope coordinates (still PSD)."""
    return [env.coords.conj().T @ g @ env.coords for g in generators]


def random_positive_level(rng, positives, k):
    """A positive element of M_k(X) from PSD matrix coefficients against a
    family of positive space elements."""
    n = positives[0].shape[0]
    out = np.zeros((k * n, k * n), dtype=np.complex128)
    for g in positives:
        c = random_complex(rng, (k, k))
        out = out + np.kron(c @ c.conj().T, g)
    return out


def random_unitized_element(rng, env, positives, level=None) -> unitize.UnitizedElement:
    """Random selfadjoint unitized element.

    Mix of planted Karn-members (v = w - (A + eps_min)^(1/2) u0
    (A + eps_min)^(1/2) with w, u0 positive and ||u0|| < 1), elements with
    indefinite scalar part (instant No), and unbiased random draws."""
    k = level if level is not None else int(rng.integers(1, 3))
    n = env.envelope_dim
    kind = int(rng.integers(0, 10))
    a = random_complex(rng, (k, k))
    a = 0.5 * (a + a.conj().T)
    if kind < 4:
        # planted member: feasible at the smallest scheduled eps, hence at all
        w_eigs = np.linalg.eigvalsh(a)
        a = a + (abs(float(w_eigs[0])) + rng.uniform(0.05, 1.0)) * np.eye(k)
        eps_min = min(unitize.DEFAULT_EPS_SCHEDULE)
        u0 = random_positive_level(rng, positives, k)
        nu = op_norm(u0)
        if nu > 1e-12:
            u0 = u0 * (rng.uniform(0.2, 0.8) / nu)
        root = unitize._psd_sqrt(a + eps_min * np.eye(k))
        big_root = np.kron(root, np.eye(n))
        # strictly interior slack: the summed positives are strictly
        # positive on the envelope support, keeping the planted member off
        # the cone boundary (exact-boundary members are honestly
        # inconclusive and useless as test fodder)
        s = sum(positives)
        w = rng.uniform(0.05, 0.3) * np.kron(np.eye(k), s)
        v = w - big_root @ u0 @ big_root
        return unitize.UnitizedElement(level=k, v_coords=_space_coords(env, v, k),
                                       scalar_part=a)
    if kind < 7:
        # indefinite scalar part
        a = a - (abs(float(np.linalg.eigvalsh(a)[0])) + rng.uniform(0.1, 1.0)) * np.eye(k)
    hb = matcore.hermitian_part_basis(env.compressed_basis)
    cr = rng.standard_normal((k, k, hb.shape[0])) \
        + 1j * rng.standard_normal((k, k, hb.shape[0]))
    cr = 0.5 * (cr + cr.conj().transpose(1, 0, 2))
    v = matcore.amplify(cr, hb) * rng.uniform(0.3, 1.5)
    return unitize.UnitizedElement(level=k, v_coords=_space_coords(env, v, k),
                                   scalar_part=a)


# ---------------------------------------------------------------------------
# Per-instance properties (the acceptance criteria check the same ones)
# ---------------------------------------------------------------------------


def karn_sandwich(env, elem, hb):
    """Xplus inside X1 on one element (criterion 6): returns the Karn verdict,
    whether a Karn-Yes element is also X1-positive, and whether its stored
    witness at the largest scheduled eps, carried over from the smallest by
    :func:`unitize.transport_witness`, passes the witness check afresh (eps
    monotonicity).  ``hb`` is the Hermitian part basis of
    ``env.compressed_basis``."""
    karn = unitize.xplus_cone_member(env, elem)
    if karn.member != unitize.MEMBER_YES:
        return karn.member, True, True
    x1_ok = unitize.x1_cone_member(env, elem, tol=1e-7).member == unitize.MEMBER_YES
    wit = karn.certificate.get("witness_u", {})
    eps_small, eps_big = min(wit, default=0.0), max(wit, default=0.0)
    if karn.certificate.get("u_zero") or eps_big <= eps_small:
        return karn.member, x1_ok, True
    root = unitize._psd_sqrt(np.asarray(elem.scalar_part) + eps_big * np.eye(elem.level))
    big_root = np.kron(root, np.eye(env.envelope_dim))
    v = matcore.amplify(elem.v_coords, env.compressed_basis)
    ok, _ = unitize._verify_karn_witness(hb, wit[eps_big], v, big_root,
                                         unitize.DEFAULT_DELTA / 2, 1e-6, elem.level)
    return karn.member, x1_ok, ok


def dichotomy(space, mode, env=None):
    """Distance to the unit and domination on one space (criterion 7):
    returns (d(X, 1), whether a dominator was found, a failure message or
    None).  Exactly one of d = 1 (within 1e-6) and a dominator must hold,
    and the domination solve must be conclusive."""
    d, _ = unitize.distance_to_unit(space, unit=mode, env=env)
    dom = unitize.dominating_element(space, unit=mode, env=env)
    if dom.inconclusive:
        return d, dom.found, "inconclusive"
    if (abs(d - 1.0) <= 1e-6) == dom.found:
        return d, dom.found, f"d={d:.8f}, found={dom.found}"
    return d, dom.found, None


def lemma_note_examples() -> list[str]:
    """The note's two worked examples (criterion 7), as failure messages:
    span{E11} in M_2 with the ambient unit has d = 1 and no dominator; the
    C3 example span{diag(1, 0, .75), diag(0, 1, .75)} in its envelope has
    d = 0.2 (within 1e-4) and a dominator."""
    failures = []
    e11 = np.diag([1.0, 0.0]).astype(np.complex128)
    d, found, why = dichotomy(validate_space([e11]), unitize.UNIT_AMBIENT)
    if why is not None or abs(d - 1.0) > 1e-6 or found:
        failures.append(f"E11: d={d}, found={found}")
    env3 = envelope_mod.compute_envelope(
        validate_space([np.diag([1, 0, 0.75]).astype(np.complex128),
                        np.diag([0, 1, 0.75]).astype(np.complex128)]), seed=0)
    d3, found3, why = dichotomy(env3.compressed_space(), unitize.UNIT_ENVELOPE, env3)
    if why is not None or abs(d3 - 0.2) > 1e-4 or not found3:
        failures.append(f"C3: d={d3}, found={found3}")
    return failures


def positive_contraction_pair(rng):
    """Two positive contractions on C^n, n in 1..8 (criterion 9): random PSD
    matrices scaled to a uniform norm in [0, 1)."""
    n = int(rng.integers(1, 9))
    pair = []
    for _ in range(2):
        t = random_psd(rng, n)
        pair.append(t / max(op_norm(t), 1e-12) * rng.uniform(0.0, 1.0))
    return pair


def envelope_discrepancy(x, seed, levels, samples, sample_seed) -> float:
    """The envelope of ``x`` certified (criterion 3): computing it raises
    when a looseness certificate fails; returns the largest relative
    discrepancy between sampled norms in X and in the envelope over levels
    1..levels, or inf when the composed embedding bound exceeds 1 + 1e-6."""
    env = envelope_mod.compute_envelope(x, seed=seed)
    if env.embedding_cb > 1.0 + 1e-6:
        return float("inf")
    rep = envelope_mod.certify_embedding(env, levels=levels, samples=samples,
                                         seed=sample_seed)
    return rep["max_relative_discrepancy"]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_theorem_b(seed=0, instances=40) -> SuiteResult:
    """Generated TRO equals generated algebra on spanning-cone spaces."""
    rng = np.random.default_rng(seed)
    specs = [(int(rng.integers(3, 9)), int(rng.integers(2, 7)), rng.integers(2**31))
             for _ in range(instances)]
    bad = sum(not stargen.tro_equals_algebra(
        random_spanning_space(np.random.default_rng(s), n, g)) for n, g, s in specs)
    return SuiteResult("theorem_b_tro_equals_algebra", bad == 0,
                       f"{instances - bad}/{instances} instances")


def suite_cone_inclusion(seed=0, instances=6, elements=20) -> SuiteResult:
    """Karn-cone membership implies X1-cone membership; eps monotonicity by
    witness transport; level-0 consistency of the Karn formula."""
    rng = np.random.default_rng(seed)
    violations = 0
    checked = 0
    inconclusive = 0
    for _ in range(instances):
        kind = rng.integers(0, 2)
        if kind == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
        else:
            n = int(rng.integers(2, 5))
            gens = [random_psd(rng, n) for _ in range(3)]
        env = envelope_mod.compute_envelope(validate_space(gens),
                                            seed=int(rng.integers(2**31)))
        positives = compressed_positives(env, gens)
        hb = matcore.hermitian_part_basis(env.compressed_basis)
        for _ in range(elements):
            member, x1_ok, transport_ok = karn_sandwich(
                env, random_unitized_element(rng, env, positives), hb)
            inconclusive += member == unitize.MEMBER_INCONCLUSIVE
            checked += member == unitize.MEMBER_YES
            violations += (not x1_ok) + (not transport_ok)
        # level-0 consistency on a few elements
        for _ in range(4):
            elem = random_unitized_element(rng, env, positives, level=1)
            elem = unitize.UnitizedElement(level=1, v_coords=elem.v_coords,
                                           scalar_part=np.zeros((1, 1)))
            karn = unitize.xplus_cone_member(env, elem)
            v = matcore.amplify(elem.v_coords, env.compressed_basis)
            direct = matcore.psd_check(matcore.hermitize(v, rtol=1e-8), tol=1e-7)
            if karn.member == unitize.MEMBER_YES and not direct.positive:
                violations += 1
            if karn.member == unitize.MEMBER_NO and direct.min_eig >= 1e-7:
                violations += 1
    passed = violations == 0
    return SuiteResult("cone_inclusion_karn_in_x1", passed,
                       f"{checked} Karn-Yes elements, {violations} violations, "
                       f"{inconclusive} inconclusive")


def suite_lemma_note(seed=0, extra_instances=8) -> SuiteResult:
    """Exactly one of d(X, 1) = 1 or a dominating element exists."""
    rng = np.random.default_rng(seed)
    failures = lemma_note_examples()
    cases = []
    for _ in range(extra_instances):
        n = int(rng.integers(2, 6))
        x = random_spanning_space(rng, n)
        env = envelope_mod.compute_envelope(x, seed=int(rng.integers(2**31)))
        cases.append((env.compressed_space(), unitize.UNIT_ENVELOPE, env))
        # ambient-mode random subspaces of small norm-profile
        y = validate_space([matcore.random_hermitian(rng, n)])
        cases.append((y, unitize.UNIT_AMBIENT, None))
    spanning_fail = 0
    for i, (space, mode, env) in enumerate(cases, start=2):
        d, found, why = dichotomy(space, mode, env)
        if why is not None:
            failures.append(f"case {i}: {why}")
        # the envelope unit of a spanning-cone space is dominated
        if env is not None and not (d < 1 - 1e-6 and found):
            spanning_fail += 1
    passed = not failures and spanning_fail == 0
    return SuiteResult("lemma_note_distance_vs_domination", passed,
                       f"{len(cases) + 2} cases"
                       + ("" if passed else f"; failures: {failures[:3]},"
                          f" spanning_fail={spanning_fail}"))


def suite_prop1_inequality(seed=0, pairs=200) -> SuiteResult:
    """Differences of positive contractions have norm at most one."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        t0, t1 = positive_contraction_pair(rng)
        worst = max(worst, op_norm(t0 - t1))
    passed = worst <= 1.0 + 1e-9
    return SuiteResult("positive_contraction_difference", passed,
                       f"{pairs} pairs, max norm {worst:.12f}")


def suite_oracle_crosscheck(seed=0, instances=10) -> SuiteResult:
    """Function-space LP boundary equals the diagonal matrix pipeline."""
    rng = np.random.default_rng(seed)
    worked = [
        [[1, 0, 0.5], [0, 1, 0.5]],
        [[1, 0, 0.75], [0, 1, -0.75]],
        np.eye(3).tolist(),
    ]
    specs = [np.asarray(w, dtype=float) for w in worked]
    for _ in range(instances):
        fs = random_function_space(rng)
        specs.append(fs.basis.real)
    bad = sum(not funcspace_mod.crosscheck_diagonal(
        funcspace_mod.validate_function_space(gens), seed=seed)["matches"] for gens in specs)
    return SuiteResult("commutative_oracle_crosscheck", bad == 0,
                       f"{len(specs) - bad}/{len(specs)} agree")


def suite_envelope_certificates(seed=0, instances=6) -> SuiteResult:
    """Envelope embeddings certify: cc oracle passes and sampled norms match."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(instances):
        if i % 2 == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)),
                                  b=int(rng.integers(1, 3)))
        else:
            n = int(rng.integers(2, 6))
            gens = [random_psd(rng, n) for _ in range(3)]
        worst = max(worst, envelope_discrepancy(
            validate_space(gens), int(rng.integers(2**31)), levels=3, samples=60,
            sample_seed=int(rng.integers(2**31))))
    passed = worst <= 1e-6
    return SuiteResult("envelope_embedding_certificates", passed,
                       f"{instances} envelopes, max discrepancy {worst:.2e}")


def run_suite(profile: str = "quick", seed: int = 0) -> list[SuiteResult]:
    if profile == "quick":
        sizes = dict(theorem_b=25, cone_instances=4, cone_elements=10,
                     lemma_extra=4, prop1=200, crosscheck=8, envelopes=4)
    elif profile == "full":
        sizes = dict(theorem_b=200, cone_instances=30, cone_elements=100,
                     lemma_extra=12, prop1=1000, crosscheck=100, envelopes=12)
    else:
        raise ValueError(f"unknown suite profile {profile!r}")
    return [
        suite_theorem_b(seed=seed, instances=sizes["theorem_b"]),
        suite_cone_inclusion(seed=seed + 1, instances=sizes["cone_instances"],
                             elements=sizes["cone_elements"]),
        suite_lemma_note(seed=seed + 2, extra_instances=sizes["lemma_extra"]),
        suite_prop1_inequality(seed=seed + 3, pairs=sizes["prop1"]),
        suite_oracle_crosscheck(seed=seed + 4, instances=sizes["crosscheck"]),
        suite_envelope_certificates(seed=seed + 5, instances=sizes["envelopes"]),
    ]
