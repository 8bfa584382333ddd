import dataclasses

import numpy as np
import pytest

from ncshilov import blockdecomp, conesolver, envelope, matcore, stargen
from ncshilov.conesolver import (
    CC_NO,
    CC_YES,
    ROUTE_CHOI_BOUND,
    ROUTE_DUAL_WITNESS,
    ROUTE_GRADIENT_WITNESS,
    LinearMapSpec,
    cc_test,
    sampled_cb_lower_bound,
)
from ncshilov.envelope import (
    ESSENTIAL,
    LOOSE,
    SCAN_ASCENDING_RANK,
    SCAN_DESCENDING_RANK,
    _completion_map,
    _reduced_norms,
    _reduction,
    certify_embedding,
    compute_envelope,
    induced_isomorphism,
    is_block_loose,
    unitization_morphism,
)
from ncshilov.errors import ConeDoesNotSpan
from ncshilov.matcore import amplify, op_norm
from ncshilov.funcspace import diagonal_embedding
from ncshilov.selftest import loose_instance, random_function_space, random_unitary
from ncshilov.stargen import validate_space
from ncshilov.timing import StageTimes


def _diag_space(*cols):
    return validate_space([np.diag(c).astype(complex) for c in cols])


def test_loose_block_in_diagonal_example():
    # the third point of span{(1,0,1/2),(0,1,1/2)} never carries norm
    x = _diag_space([1, 0, 0.5], [0, 1, 0.5])
    alg = stargen.generate_star_algebra(x)
    dec = blockdecomp.decompose(alg, seed=0)
    by_point = {int(np.argmax(np.real(np.diagonal(b.projection)))): b
                for b in dec.blocks}
    v3 = is_block_loose(x, alg.unit, by_point[2], tol=1e-7)
    assert v3.status == LOOSE
    v1 = is_block_loose(x, alg.unit, by_point[0], tol=1e-7)
    assert v1.status == ESSENTIAL
    assert v1.witness_gap is None or v1.witness_gap > 0


def test_single_block_space_is_essential():
    x = validate_space([np.array([[1, 0], [0, 0]], dtype=complex),
                        np.array([[0, 0], [0, 1]], dtype=complex),
                        np.array([[1, 1], [1, 1]], dtype=complex) / 2])
    alg = stargen.generate_star_algebra(x)
    dec = blockdecomp.decompose(alg, seed=0)
    assert len(dec.blocks) == 1
    v = is_block_loose(x, alg.unit, dec.blocks[0], tol=1e-7)
    assert v.status == ESSENTIAL
    assert "injective" in v.reason or "zero" in v.reason


def test_envelope_diagonal_half_example():
    env = compute_envelope(_diag_space([1, 0, 0.5], [0, 1, 0.5]), seed=0)
    assert env.abstract_blocks == (1, 1)
    assert env.eliminations() == 1
    # eliminated block is the third coordinate
    assert np.real(env.q[2, 2]) < 1e-9
    rep = certify_embedding(env, levels=3, samples=100, seed=1)
    assert rep["passed"]


def test_envelope_scalar_space():
    env = compute_envelope(validate_space([np.eye(2, dtype=complex)]), seed=0)
    assert env.abstract_blocks == (1,)
    # the embedded image of the identity is the envelope unit
    c = env.source.coeffs_of(np.eye(2))
    img = np.einsum("t,tab->ab", c, env.compressed_basis)
    assert np.allclose(img, env.unit())


def test_envelope_generic_m5():
    rng = np.random.default_rng(42)
    x = validate_space([matcore.random_psd(rng, 5) for _ in range(3)])
    env = compute_envelope(x, seed=0)
    assert env.abstract_blocks == (5,)
    assert env.eliminations() == 0


def test_envelope_rejects_nonspanning_cone():
    x = validate_space([np.array([[0, 1], [1, 0]], dtype=complex)])
    with pytest.raises(ConeDoesNotSpan):
        compute_envelope(x, seed=0)


def test_envelope_idempotence():
    rng = np.random.default_rng(5)
    gens = loose_instance(rng, a=3, b=2)
    env = compute_envelope(validate_space(gens), seed=1)
    again = compute_envelope(env.compressed_space(), seed=2)
    assert again.abstract_blocks == env.abstract_blocks
    assert again.eliminations() == 0


def test_order_independence_and_isomorphism():
    rng = np.random.default_rng(8)
    gens = loose_instance(rng, a=3, b=2, extra_blocks=1)
    x = validate_space(gens)
    env1 = compute_envelope(x, seed=3)
    env2 = compute_envelope(x, seed=3, scan_order=SCAN_ASCENDING_RANK)
    assert env1.abstract_blocks == env2.abstract_blocks
    iso = induced_isomorphism(env1, env2, np.eye(x.dim))
    assert iso.found
    assert iso.residual <= 1e-6


def test_planted_cb_one_instance_is_decided_in_both_scan_orders():
    # criterion 4's instance 7: its completion maps are compressions, so
    # every cb-norm the oracle meets is exactly 1 and must come back decided
    rng = np.random.default_rng(404)
    for i in range(8):
        gens = loose_instance(rng, a=int(rng.integers(2, 4)),
                              b=int(rng.integers(1, 3)),
                              extra_blocks=int(rng.integers(0, 2)))
        if i < 7:
            random_unitary(rng, gens[0].shape[0])  # criterion 4's conjugation draw
    x = validate_space(gens)
    env = compute_envelope(x, seed=7)
    env_rev = compute_envelope(x, seed=7, scan_order=SCAN_ASCENDING_RANK)
    assert env.embedding_cb <= 1.0 + 1e-6
    assert env_rev.embedding_cb <= 1.0 + 1e-6
    assert env.abstract_blocks == env_rev.abstract_blocks
    iso = induced_isomorphism(env, env_rev, np.eye(x.dim))
    assert iso.found
    assert iso.residual <= 1e-6


def test_real_loose_block_of_size_one_is_decided():
    # a real planted space g ⊕ v^T g v whose loose block has size 1, so its
    # completion map goes into the scalars; the cb-norm is exactly 1
    rng = np.random.default_rng(50)

    def orthogonal(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diagonal(r))

    v = orthogonal(3)[:, :1]
    u = orthogonal(4)
    gens = []
    for _ in range(3):
        g = rng.standard_normal((3, 3))
        g = g @ g.T
        big = np.zeros((4, 4))
        big[:3, :3] = g
        big[3:, 3:] = v.T @ g @ v
        gens.append(u @ big @ u.T)
    x = validate_space(gens)
    for seed in range(3):
        env = compute_envelope(x, seed=seed)
        assert env.abstract_blocks == (3,)
        assert env.embedding_cb <= 1.0 + 1e-6


@pytest.fixture(scope="module")
def crit4_instance0_env():
    """Envelope of criterion 4's instance 0, which has two eliminations."""
    rng = np.random.default_rng(404)
    gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=int(rng.integers(1, 3)),
                          extra_blocks=int(rng.integers(0, 2)))
    return compute_envelope(validate_space(gens), seed=0)


def test_composed_embedding_bound_covers_the_direct_certificate(crit4_instance0_env):
    # the reference is the direct certificate of the completion map
    # X q -> X(e - q)
    env = crit4_instance0_env
    assert env.eliminations() >= 2
    cut = matcore.hermitize(env.source_unit - env.q)
    _, u = matcore.herm_eig(cut)
    cut_coords = u[:, :int(round(float(np.real(np.trace(cut)))))]
    direct = LinearMapSpec(list(env.compressed_basis),
                           [cut_coords.conj().T @ b @ cut_coords for b in env.source.basis])
    assert cc_test(direct).verdict == CC_YES
    assert sampled_cb_lower_bound(direct, max_level=3, samples=300, seed=1) <= env.embedding_cb


def test_envelope_decides_without_the_sampler(monkeypatch, crit4_instance0_env):
    # Loose verdicts rest on the certified Choi bound alone
    calls = []
    monkeypatch.setattr(conesolver, "sampled_cb_lower_bound",
                        lambda *a, **k: calls.append(1))
    env = compute_envelope(crit4_instance0_env.source, seed=0)
    assert env.eliminations() >= 2
    assert calls == []


def _two_copy_space(m):
    """g ⊕ (V* g V ⊗ 1_m) for three positive g in M_3, V a 3 x 2 isometry:
    C*(X) is M_3 ⊕ M_2 ⊗ 1_m, and neither block's compression has a
    kernel."""
    rng = np.random.default_rng(37)
    v = random_unitary(rng, 3)[:, :2]
    gens = []
    for _ in range(3):
        g = matcore.random_psd(rng, 3)
        big = np.zeros((3 + 2 * m, 3 + 2 * m), dtype=complex)
        big[:3, :3] = g
        big[3:, 3:] = np.kron(v.conj().T @ g @ v, np.eye(m))
        gens.append(big)
    return validate_space(gens)


def _attained_cb_norm(spec):
    """The cb-norm as the dual witness attains it at the optimum: the Choi
    solve run with no stop, then the witness read off its dual slack."""
    sol = conesolver._hkm_max_scale(*conesolver._choi_rows(spec))
    return conesolver._dual_witness(spec, sol.z)[1]


def test_block_with_multiplicity_gets_the_verdict_of_its_single_copy_twin():
    verdicts, attained, solved = {}, {}, {}
    for m in (1, 2):
        x = _two_copy_space(m)
        alg = stargen.generate_star_algebra(x)
        dec = blockdecomp.decompose(alg, seed=0)
        assert sorted(dec.block_sizes) == [(2, m), (3, 1)]
        # both blocks reach the cc oracle, the M_2 one through strip
        verdicts[m] = {b.k: is_block_loose(x, alg.unit, b) for b in dec.blocks}
        m3 = next(b for b in dec.blocks if b.k == 3)
        spec, _ = _completion_map(x.basis, alg.unit - m3.projection, m3)
        attained[m] = _attained_cb_norm(spec)
        solved[m] = conesolver._cc_interior_point(spec)
    for k, twin in verdicts[1].items():
        v = verdicts[2][k]
        assert (v.status, v.route) == (twin.status, twin.route)
    assert verdicts[2][2].status == LOOSE and verdicts[2][2].route == ROUTE_CHOI_BOUND
    # the M_3 block's No is settled in closed form; the interior-point stage
    # alone reaches it by its dual witness
    assert verdicts[2][3].route == ROUTE_GRADIENT_WITNESS and verdicts[2][3].iterations == 0
    assert all(solved[m].verdict == CC_NO and solved[m].route == ROUTE_DUAL_WITNESS
               for m in (1, 2))
    # an Essential step rests on its witness, not on a Choi iterate
    assert verdicts[2][3].residual is None and verdicts[2][2].residual is not None
    assert attained[2] == pytest.approx(attained[1], rel=1e-6)
    # a No reports its witness ratio, a certified lower bound for the cb-norm
    for m in (1, 2):
        assert 1.0 + 1e-7 < verdicts[m][3].cb_estimate <= attained[m] + 1e-8


def _reference_block_norms(env, levels, samples, seed):
    """A per-sample loop over the quantities certify_embedding reads: the
    draws one random_complex call at a time, and per sample the norms of
    y_q and y_perp over the blocks of the reduction, each the square root
    of the largest eigenvalue of its Gram matrix, and the off-diagonal bound
    sum_t ||c_t||_F leak_t."""
    inner, outer, leak = _reduction(env)
    rng = np.random.default_rng(seed)

    def norm(y):
        return np.sqrt(max(np.linalg.eigvalsh(y.conj().T @ y)[-1], 0.0)) if y.size else 0.0

    out = []
    for k in range(1, levels + 1):
        ny, ne = [], []
        for _ in range(samples):
            c = matcore.random_complex(rng, (k, k, env.source.dim))
            nq = norm(amplify(c, inner))
            off = (np.linalg.norm(c, axis=(0, 1)) * leak).sum()
            ny.append(max(nq, norm(amplify(c, outer))) + off)
            ne.append(nq)
        out.append((np.array(ny), np.array(ne)))
    return out


def test_certify_embedding_equals_the_per_sample_gram_loop(crit4_instance0_env):
    env = crit4_instance0_env
    reference = _reference_block_norms(env, 4, 120, seed=3)
    per_level = [float((np.abs(ny - ne) / ny).max()) for ny, ne in reference]
    # every level contributes a nonzero discrepancy of its own
    assert all(w > 0.0 for w in per_level)
    for levels in (1, 2, 3, 4):
        rep = certify_embedding(env, levels=levels, samples=120, seed=3)
        assert rep["max_relative_discrepancy"] == max(per_level[:levels])
        assert rep["passed"]
    # each level's norms on their own, after the same prefix of draws
    rng = np.random.default_rng(3)
    blocks = _reduction(env)
    for k in (1, 2, 3, 4):
        c = np.array([matcore.random_complex(rng, (k, k, env.source.dim))
                      for _ in range(120)])
        ny, ne = _reduced_norms(c, *blocks)
        assert np.array_equal(ny, reference[k - 1][0])
        assert np.array_equal(ne, reference[k - 1][1])
    assert certify_embedding(env, levels=2, samples=0, seed=3)["max_relative_discrepancy"] == 0.0


def test_certify_embedding_norms_are_operator_norms(crit4_instance0_env):
    # the bound on ||y|| and ||y_q|| read off the two blocks agree with the
    # spectral norms of y and y (1 ⊗ q) themselves
    env = crit4_instance0_env
    blocks = _reduction(env)
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 4):
        c = matcore.random_complex(rng, (30, k, k, env.source.dim))
        ny, ne = _reduced_norms(c, *blocks)
        lift = np.kron(np.eye(k), env.q)
        for i, y in enumerate(amplify(c, env.source.basis)):
            assert abs(ny[i] - np.linalg.norm(y, 2)) <= 1e-12 * ny[i]
            assert abs(ne[i] - np.linalg.norm(y @ lift, 2)) <= 1e-12 * ny[i]


def test_certify_embedding_without_a_cut_is_exact(monkeypatch):
    # nothing to cut: coords is the identity, y_perp has no entries and the
    # discrepancy is exactly 0, returned without drawing or taking a norm
    x = validate_space([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    env = compute_envelope(x, seed=0)
    assert env.envelope_dim == 2 and env.eliminations() == 0
    _, outer, leak = _reduction(env)
    assert outer.shape == (x.dim, 0, 0) and not leak.any()

    def refuse(*args, **kwargs):
        raise AssertionError("an uncut envelope takes no norm")

    monkeypatch.setattr(envelope, "_reduced_norms", refuse)
    stats = StageTimes()
    rep = certify_embedding(env, levels=3, samples=50, seed=1, stats=stats)
    assert rep == {"levels": 3, "samples_per_level": 50, "max_relative_discrepancy": 0.0,
                   "passed": True}
    assert [(s.name, s.detail) for s in stats.stages] == [("certify_embedding", "nothing cut")]


def test_certify_embedding_fails_without_a_retained_column(crit4_instance0_env,
                                                           cholesky_answers):
    # the certificate reads the embedded side through coords, so dropping
    # one retained column of range(q) must show as lost norm, whether or not
    # compressed_basis drops it too; when it does, ||y_perp|| exceeds
    # ||y_q|| on some samples and the Cholesky test cannot settle a level.
    # Either way the norms are the per-sample loop's, bit for bit
    env = crit4_instance0_env
    assert certify_embedding(env, levels=2, samples=50, seed=1)["passed"]
    for j in range(env.envelope_dim):
        coords = np.delete(env.coords, j, axis=1)
        stale = dataclasses.replace(env, coords=coords)
        cut = dataclasses.replace(stale, compressed_basis=coords.conj().T @ env.source.basis
                                  @ coords)
        for broken in (stale, cut):
            cholesky_answers.clear()
            assert not certify_embedding(broken, levels=2, samples=50, seed=1)["passed"]
            if broken is cut:
                assert cholesky_answers == [False, False]
            reference = _reference_block_norms(broken, 2, 50, seed=1)
            rng = np.random.default_rng(1)
            blocks = _reduction(broken)
            for k in (1, 2):
                c = np.array([matcore.random_complex(rng, (k, k, env.source.dim))
                              for _ in range(50)])
                ny, ne = _reduced_norms(c, *blocks)
                assert np.array_equal(ny, reference[k - 1][0])
                assert np.array_equal(ne, reference[k - 1][1])


def test_certify_embedding_is_the_same_without_the_cholesky_test(crit4_instance0_env,
                                                                  cholesky_answers, monkeypatch):
    # on a cut envelope the Cholesky test settles every level, and the
    # report and the norms equal those of the eigenvalue path, which runs
    # when the test is forced to fail
    env = crit4_instance0_env
    stats = StageTimes()
    rep = certify_embedding(env, levels=4, samples=120, seed=3, stats=stats)
    assert cholesky_answers == [True] * 4
    assert stats.stages[0].detail == "complement by Cholesky at 4 of 4 levels"
    c = matcore.random_complex(np.random.default_rng(5), (60, 3, 3, env.source.dim))
    fast = _reduced_norms(c, *_reduction(env))
    monkeypatch.setattr(matcore, "certified_above", lambda a, floor: False)
    stats = StageTimes()
    assert certify_embedding(env, levels=4, samples=120, seed=3, stats=stats) == rep
    assert stats.stages[0].detail == "complement by Cholesky at 0 of 4 levels"
    for got, want in zip(fast, _reduced_norms(c, *_reduction(env))):
        assert np.array_equal(got, want)


def test_certify_embedding_fails_on_a_slightly_rotated_range(crit4_instance0_env):
    # a range(q) turned by 1e-3 from a retained toward a removed direction
    # no longer reduces X; the off-diagonal bound shows it
    env = crit4_instance0_env
    perp = matcore.null_space(env.coords.conj().T).T
    assert perp.shape[1] >= 1
    theta = 1e-3
    for j in range(env.envelope_dim):
        for i in range(perp.shape[1]):
            coords = env.coords.copy()
            coords[:, j] = np.cos(theta) * env.coords[:, j] + np.sin(theta) * perp[:, i]
            turned = dataclasses.replace(env, coords=coords,
                                         compressed_basis=coords.conj().T @ env.source.basis
                                         @ coords)
            assert not certify_embedding(turned, levels=2, samples=50, seed=1)["passed"]


def _ambient_gram_discrepancy(env, levels, samples, seed):
    """The largest relative discrepancy between ||y|| and ||y (1 ⊗ q)||,
    both read off the ambient Gram matrix y* y, on certify_embedding's
    draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(1, levels + 1):
        lift = np.kron(np.eye(k), env.coords)
        for _ in range(samples):
            y = amplify(matcore.random_complex(rng, (k, k, env.source.dim)), env.source.basis)
            g = y.conj().T @ y
            ny = np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0))
            ne = np.sqrt(max(np.linalg.eigvalsh(lift.conj().T @ g @ lift)[-1], 0.0))
            if ny >= 1e-12:
                worst = max(worst, abs(ny - ne) / ny)
    return worst


def test_certify_embedding_bounds_the_ambient_discrepancy():
    # on criterion 4's first spaces and their conjugated copies, drawn as
    # its acceptance test draws them, the reported discrepancy at the CLI's
    # levels and samples is never below the one read off the ambient Gram
    # matrix, and passes
    rng = np.random.default_rng(404)
    cut = 0
    for i in range(3):
        gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=int(rng.integers(1, 3)),
                              extra_blocks=int(rng.integers(0, 2)))
        u = random_unitary(rng, gens[0].shape[0])
        for space, seed in ((gens, i), ([u @ g @ u.conj().T for g in gens], i + 1000)):
            env = compute_envelope(validate_space(space), seed=seed)
            cut += env.eliminations() > 0
            reported = certify_embedding(env, levels=4, samples=120, seed=seed + 1)
            ambient = _ambient_gram_discrepancy(env, 4, 120, seed=seed + 1)
            assert ambient - 1e-14 <= reported["max_relative_discrepancy"] <= 1e-6
    assert cut >= 4


def _traced_envelope(monkeypatch, x, **kwargs):
    """compute_envelope with blockdecomp.decompose wrapped: returns the
    envelope and every split it made."""
    splits = []
    real = blockdecomp.decompose

    def counted(alg, seed=0):
        splits.append(real(alg, seed=seed))
        return splits[-1]

    monkeypatch.setattr(blockdecomp, "decompose", counted)
    env = compute_envelope(x, **kwargs)
    monkeypatch.setattr(blockdecomp, "decompose", real)
    return env, splits


def _crit4_spaces(count):
    rng = np.random.default_rng(404)
    out = []
    for _ in range(count):
        gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=int(rng.integers(1, 3)),
                              extra_blocks=int(rng.integers(0, 2)))
        out.append(validate_space(gens))
        random_unitary(rng, gens[0].shape[0])  # criterion 4's conjugation draw
    return out


def _crit5_spaces(count):
    """Diagonal embeddings of criterion 5's first function spaces; several
    find blocks Essential after an elimination."""
    rng = np.random.default_rng(505)
    return [diagonal_embedding(random_function_space(rng)) for _ in range(count)]


@pytest.mark.parametrize("scan_order", [SCAN_DESCENDING_RANK, SCAN_ASCENDING_RANK])
def test_envelope_splits_once_and_tests_each_essential_block_once(monkeypatch, scan_order):
    for i, x in enumerate(_crit4_spaces(6) + _crit5_spaces(8)):
        env, splits = _traced_envelope(monkeypatch, x, seed=i, scan_order=scan_order)
        assert len(splits) == 1
        essential = [s.block_index for s in env.trace if s.verdict.status == ESSENTIAL]
        assert len(essential) == len(set(essential))
        removed = [s.block_index for s in env.trace if s.removed]
        assert not set(removed) & set(essential)
        # every block of the split is removed, or retained after being
        # found Essential once
        assert sorted(removed + essential) == list(range(len(splits[0].blocks)))
        assert len(env.blocks.blocks) == len(essential)


def test_transported_blocks_equal_a_fresh_split_of_the_envelope():
    for i, x in enumerate(_crit4_spaces(6) + _crit5_spaces(8)):
        env = compute_envelope(x, seed=i)
        fresh = blockdecomp.decompose(stargen.generate_star_algebra(env.compressed_basis),
                                      seed=i)
        assert len(fresh.blocks) == len(env.blocks.blocks)
        for b in env.blocks.blocks:
            overlaps = [float(np.real(np.trace(b.projection @ f.projection)))
                        for f in fresh.blocks]
            match = fresh.blocks[int(np.argmax(overlaps))]
            assert (match.k, match.m) == (b.k, b.m)
            assert np.abs(match.projection - b.projection).max() <= 1e-8
            # the transported copy still strips the envelope algebra onto M_k
            # by a *-homomorphism
            imgs = [b.strip(a) for a in env.algebra.basis]
            for a, ia in zip(env.algebra.basis, imgs):
                assert np.abs(b.strip(a.conj().T) - ia.conj().T).max() <= 1e-8
                for c, ic in zip(env.algebra.basis, imgs):
                    assert np.abs(b.strip(a @ c) - ia @ ic).max() <= 1e-8
            flat = np.stack(imgs).reshape(len(imgs), -1)
            assert np.linalg.matrix_rank(flat, tol=1e-8) == b.k ** 2


@pytest.mark.parametrize("scan_order", [SCAN_DESCENDING_RANK, SCAN_ASCENDING_RANK])
def test_essential_witness_gaps_recompute_from_the_source_basis(monkeypatch, scan_order):
    checked = after_removal = 0
    for i, x in enumerate(_crit4_spaces(6) + _crit5_spaces(8)):
        env, (split,) = _traced_envelope(monkeypatch, x, seed=i, scan_order=scan_order)
        unit = env.source_unit
        for step in env.trace:
            p = split.blocks[step.block_index].projection
            v = step.verdict
            if v.status == ESSENTIAL and v.witness_coeffs is not None:
                keep = unit - p
                k = v.witness_coeffs.shape[0]
                y = amplify(v.witness_coeffs, env.source.basis)
                gap = (op_norm(y @ np.kron(np.eye(k), unit))
                       - op_norm(y @ np.kron(np.eye(k), keep)))
                assert abs(gap - v.witness_gap) <= 1e-10
                assert v.witness_gap > 0
                checked += 1
                after_removal += step.pass_index > 0
            if step.removed:
                unit = unit - p
        assert np.abs(unit - env.q).max() <= 1e-10
    assert after_removal > 0


def test_per_elimination_norm_conservation():
    rng = np.random.default_rng(11)
    gens = loose_instance(rng, a=3, b=2)
    x = validate_space(gens)
    env = compute_envelope(x, seed=0)
    assert env.eliminations() >= 1
    for k in (1, 2, 3):
        for _ in range(30):
            c = matcore.random_complex(rng, (k, k, x.dim))
            y = amplify(c, x.basis)
            ye = amplify(c, x.basis @ env.q)
            assert abs(op_norm(y) - op_norm(ye)) <= 1e-7 * max(1.0, op_norm(y))


def test_quotient_onto_envelope_is_star_homomorphism():
    rng = np.random.default_rng(13)
    gens = loose_instance(rng, a=2, b=2)
    x = validate_space(gens)
    env = compute_envelope(x, seed=0)
    alg = stargen.generate_star_algebra(x)
    q = env.q

    def compress(m):
        return env.coords.conj().T @ m @ env.coords

    for a in alg.basis[:6]:
        for b in alg.basis[:6]:
            lhs = compress(a @ b)
            rhs = compress(a) @ compress(b)
            assert np.abs(lhs - rhs).max() <= 1e-8
        assert np.abs(compress(a.conj().T) - compress(a).conj().T).max() <= 1e-10
    # surjectivity: compressed algebra basis images span the envelope algebra
    comp = np.stack([compress(a) for a in alg.basis])
    for b in env.algebra.basis:
        assert matcore.span_residual(stargen.matcore.orthonormalize(comp), b) <= 1e-8


def test_induced_isomorphism_unitary_conjugation():
    rng = np.random.default_rng(17)
    gens = loose_instance(rng, a=3, b=1)
    x = validate_space(gens)
    env1 = compute_envelope(x, seed=5)
    u = random_unitary(rng, gens[0].shape[0])
    gens2 = [u @ g @ u.conj().T for g in gens]
    x2 = validate_space(gens2)
    env2 = compute_envelope(x2, seed=9)
    t = np.empty((x2.dim, x.dim), dtype=complex)
    for i in range(x.dim):
        t[:, i] = x2.coeffs_of(u @ x.basis[i] @ u.conj().T)
    iso = induced_isomorphism(env1, env2, t)
    assert iso.found
    assert iso.residual <= 1e-6
    assert sorted(env1.abstract_blocks) == sorted(env2.abstract_blocks)


def test_induced_isomorphism_identity():
    rng = np.random.default_rng(19)
    x = validate_space([matcore.random_psd(rng, 3) for _ in range(2)])
    env = compute_envelope(x, seed=0)
    iso = induced_isomorphism(env, env, np.eye(x.dim))
    assert iso.found
    assert iso.residual <= 1e-8


def test_induced_isomorphism_refuses_an_ambiguous_graph_algebra():
    # the identity off by 1e-8 passes the isometry spot check, but the graph
    # algebra's extra directions land in the closure's rank band: refused
    # with that reason, not guessed; off by 1e-12 it is still found
    rng = np.random.default_rng(19)
    x = validate_space([matcore.random_psd(rng, 3) for _ in range(2)])
    env = compute_envelope(x, seed=0)
    noise = matcore.random_complex(np.random.default_rng(1), (x.dim, x.dim))
    assert induced_isomorphism(env, env, np.eye(x.dim) + 1e-12 * noise).found
    iso = induced_isomorphism(env, env, np.eye(x.dim) + 1e-8 * noise)
    assert not iso.found
    assert iso.reason.startswith("graph algebra: singular value ratios")


def test_induced_isomorphism_rejects_a_non_isometric_correspondence():
    # twice the identity fails at the first level-1 spot-check sample, and
    # the reason quotes that sample's two norms
    rng = np.random.default_rng(19)
    x = validate_space([matcore.random_psd(rng, 3) for _ in range(2)])
    env = compute_envelope(x, seed=0)
    iso = induced_isomorphism(env, env, 2.0 * np.eye(x.dim))
    assert not iso.found
    c = matcore.random_complex(np.random.default_rng(11), (1, 1, x.dim))
    na = float(np.linalg.norm(np.einsum("ijt,tab->iajb", c, x.basis).reshape(3, 3), 2))
    nb = float(np.linalg.norm(np.einsum("ijt,tab->iajb", 2.0 * c, x.basis).reshape(3, 3), 2))
    assert iso.reason == f"correspondence not isometric at level 1: {na:.8f} vs {nb:.8f}"


def test_induced_isomorphism_block_mismatch():
    rng = np.random.default_rng(23)
    x1 = validate_space([matcore.random_psd(rng, 3) for _ in range(3)])
    env1 = compute_envelope(x1, seed=0)
    x2 = _diag_space([1, 0, 0.75], [0, 1, 0.75])
    env2 = compute_envelope(x2, seed=0)
    # dimensions happen to differ; a zero map suffices to reach the check
    t = np.zeros((x2.dim, x1.dim))
    iso = induced_isomorphism(env1, env2, t)
    assert not iso.found
    assert "block" in iso.reason


def test_unitization_morphism_is_cp():
    x = _diag_space([1, 0, 0.5], [0, 1, 0.5])
    env = compute_envelope(x, seed=0)
    um = unitization_morphism(x, env)
    assert um.choi_positive
    assert um.unital_residual <= 1e-10


def test_unitization_morphism_identity_case():
    rng = np.random.default_rng(29)
    x = validate_space([matcore.random_psd(rng, 4) for _ in range(3)])
    env = compute_envelope(x, seed=0)
    assert env.eliminations() == 0
    um = unitization_morphism(x, env)
    assert um.choi_positive
