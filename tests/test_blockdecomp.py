import numpy as np
import pytest

from ncshilov import blockdecomp, matcore
from ncshilov.blockdecomp import (
    MAX_RETRIES,
    center,
    decompose,
    minimal_central_projections,
    strip_multiplicity,
)
from ncshilov.errors import DegenerateSample
from ncshilov.selftest import random_unitary
from ncshilov.stargen import generate_star_algebra, validate_space


def _unit(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _full_matrix_algebra(n):
    return generate_star_algebra(
        validate_space([_unit(i, j, n) for i in range(n) for j in range(n)]))


def _strip_defects(block, basis):
    """How far ``block.strip`` is from a *-homomorphism onto M_k over a
    basis of the algebra: the largest deviation from multiplicativity and
    from *-preservation, and the rank of the images (k^2 when they span
    M_k)."""
    imgs = [block.strip(b) for b in basis]
    mult = max(np.abs(block.strip(a @ b) - ia @ ib).max()
               for a, ia in zip(basis, imgs) for b, ib in zip(basis, imgs))
    star = max(np.abs(block.strip(a.conj().T) - ia.conj().T).max()
               for a, ia in zip(basis, imgs))
    rank = np.linalg.matrix_rank(np.stack(imgs).reshape(len(imgs), -1), tol=1e-8)
    return max(mult, star), rank


def _two_block_algebra(rng):
    """M_2 ⊕ M_3 embedded in M_5."""
    gens = []
    for _ in range(3):
        g = np.zeros((5, 5), dtype=complex)
        g[:2, :2] = matcore.random_complex(rng, (2, 2))
        gens.append(g)
    for _ in range(4):
        g = np.zeros((5, 5), dtype=complex)
        g[2:, 2:] = matcore.random_complex(rng, (3, 3))
        gens.append(g)
    return generate_star_algebra(validate_space(gens))


def test_center_full_matrix():
    assert center(_full_matrix_algebra(2)).shape[0] == 1


def test_center_diagonal():
    alg = generate_star_algebra(validate_space([_unit(i, i, 3) for i in range(3)]))
    assert center(alg).shape[0] == 3


def test_center_two_blocks():
    rng = np.random.default_rng(7)
    alg = _two_block_algebra(rng)
    assert alg.dim == 13
    assert center(alg).shape[0] == 2


def test_minimal_projections_full_matrix():
    ps = minimal_central_projections(_full_matrix_algebra(2), seed=0)
    assert len(ps) == 1
    assert np.allclose(ps[0], np.eye(2))


def test_minimal_projections_diagonal():
    alg = generate_star_algebra(validate_space([_unit(i, i, 3) for i in range(3)]))
    ps = minimal_central_projections(alg, seed=0)
    assert len(ps) == 3
    diags = sorted(tuple(np.round(np.real(np.diagonal(p)))) for p in ps)
    assert diags == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_minimal_projections_two_blocks_ranks():
    rng = np.random.default_rng(3)
    gens = []
    for _ in range(3):
        g = np.zeros((4, 4), dtype=complex)
        g[:2, :2] = np.eye(2) * rng.standard_normal()
        g[2:, 2:] = matcore.random_complex(rng, (2, 2))
        gens.append(g)
    alg = generate_star_algebra(validate_space(gens))
    ps = minimal_central_projections(alg, seed=1)
    ranks = sorted(int(round(np.trace(p).real)) for p in ps)
    assert ranks == [2, 2]


def test_strip_multiplicity_scalars_with_multiplicity():
    alg = generate_star_algebra(validate_space([np.eye(2, dtype=complex)]))
    info = strip_multiplicity(alg, alg.unit, seed=0)
    assert (info.k, info.m) == (1, 2)


def test_strip_multiplicity_full_block():
    alg = _full_matrix_algebra(2)
    info = strip_multiplicity(alg, np.eye(2, dtype=complex), seed=0)
    assert (info.k, info.m) == (2, 1)


def test_strip_multiplicity_tensor_copy():
    rng = np.random.default_rng(11)
    gens = [np.kron(matcore.random_complex(rng, (2, 2)), np.eye(2)) for _ in range(3)]
    alg = generate_star_algebra(validate_space(gens))
    dec = decompose(alg, seed=0)
    assert dec.block_sizes == [(2, 2)]
    defect, rank = _strip_defects(dec.blocks[0], alg.basis)
    assert defect <= 1e-7 and rank == 4


@pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (1, 3)])
def test_strip_is_a_star_homomorphism_onto_the_block(k, m):
    # M_k ⊗ 1_m, hidden by a random unitary, inside a zero corner
    rng = np.random.default_rng(31 + 10 * k + m)
    n = k * m + 1
    u = random_unitary(rng, n)
    gens = []
    for _ in range(3):
        g = np.zeros((n, n), dtype=complex)
        g[:k * m, :k * m] = np.kron(matcore.random_complex(rng, (k, k)), np.eye(m))
        gens.append(u @ g @ u.conj().T)
    alg = generate_star_algebra(validate_space(gens))
    dec = decompose(alg, seed=k + m)
    assert dec.block_sizes == [(k, m)]
    block = dec.blocks[0]
    assert np.abs(block.copy.conj().T @ block.copy - np.eye(k)).max() <= 1e-10
    defect, rank = _strip_defects(block, alg.basis)
    assert defect <= 1e-8
    assert rank == k * k


def test_dimension_identities():
    rng = np.random.default_rng(13)
    alg = _two_block_algebra(rng)
    dec = decompose(alg, seed=5)
    assert sum(k * k for k, m in dec.block_sizes) == alg.dim
    assert sum(k * m for k, m in dec.block_sizes) == int(round(np.trace(alg.unit).real))


def test_partition_stable_across_seeds():
    rng = np.random.default_rng(17)
    alg = _two_block_algebra(rng)
    d1 = decompose(alg, seed=1)
    d2 = decompose(alg, seed=999)
    assert sorted(d1.block_sizes) == sorted(d2.block_sizes)
    # projections agree up to re-indexing
    for b1 in d1.blocks:
        hit = any(np.abs(b1.projection - b2.projection).max() < 1e-7
                  for b2 in d2.blocks)
        assert hit


def test_block_diagonalization_residual():
    rng = np.random.default_rng(19)
    gens = [np.zeros((7, 7), dtype=complex) for _ in range(4)]
    for g in gens:
        g[:4, :4] = np.kron(matcore.random_complex(rng, (2, 2)), np.eye(2))
        g[4:, 4:] = matcore.random_complex(rng, (3, 3))
    alg = generate_star_algebra(validate_space(gens))
    dec = decompose(alg, seed=2)
    assert sorted(dec.block_sizes) == [(2, 2), (3, 1)]
    for blk in dec.blocks:
        defect, rank = _strip_defects(blk, alg.basis)
        assert defect <= 1e-7 and rank == blk.k ** 2


def test_projections_are_central_idempotent():
    rng = np.random.default_rng(23)
    alg = _two_block_algebra(rng)
    ps = minimal_central_projections(alg, seed=0)
    total = np.zeros_like(alg.unit)
    for p in ps:
        assert np.abs(p @ p - p).max() <= 1e-8
        assert np.abs(p - p.conj().T).max() <= 1e-8
        for b in alg.basis:
            assert np.abs(p @ b - b @ p).max() <= 1e-8
        total += p
    assert np.abs(total - alg.unit).max() <= 1e-8


def test_central_sample_merging_blocks_fails_the_count(monkeypatch):
    # a sample that merges two blocks is still a verified central
    # partition; only its count, 2 for a 3-dimensional center, rejects it
    alg = generate_star_algebra(validate_space([_unit(i, i, 3) for i in range(3)]))
    real = blockdecomp._random_central_projections
    merged = []

    def merging(alg, zbasis, rng):
        projs = sorted(real(alg, zbasis, rng), key=lambda p: np.real(p[0, 0]))
        merged.append([projs[0] + projs[1]] + projs[2:])
        return merged[-1]

    monkeypatch.setattr(blockdecomp, "_random_central_projections", merging)
    with pytest.raises(DegenerateSample, match="2 projections for a center of dimension 3"):
        minimal_central_projections(alg, seed=0)
    assert len(merged) == MAX_RETRIES
    assert all(blockdecomp._verify_central_partition(alg, projs) for projs in merged)
