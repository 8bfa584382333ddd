"""Wedderburn structure of a finite-dimensional matrix *-algebra.

Center, minimal central projections, and multiplicity stripping: the
algebra is presented as a direct sum of full matrix blocks M_k repeated
with multiplicity m.  Splitting is randomized (spectral projections of a
random central element, then the cyclic subspace of an eigenvector of a
random element of each block), and each sample is accepted only on its
own exact certificate: a verified central partition of dim Z projections,
and an invariant copy on which the block acts injectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ncshilov import matcore
from ncshilov.errors import DegenerateSample, NotAFactor
from ncshilov.matcore import hermitian_part_basis, hermitize, orthonormalize
from ncshilov.stargen import AlgebraPresentation

EIG_GAP = 1e-6
MAX_RETRIES = 5


def center(alg: AlgebraPresentation) -> np.ndarray:
    """HS-orthonormal basis of the center of the algebra.

    Solves the homogeneous commutation system z b - b z = 0 over the span
    of the algebra basis."""
    basis = alg.basis
    d, n, _ = basis.shape
    # commutator of sum_t c_t basis_t with each basis_j, as a linear map on c
    rows = []
    for bj in basis:
        comm = np.einsum("tab,bc->tac", basis, bj) - np.einsum("ab,tbc->tac", bj, basis)
        rows.append(comm.reshape(d, n * n))
    a = np.concatenate(rows, axis=1)  # row t = all commutators of basis_t
    # the basis is orthonormal, so the commutation operator has O(1) scale;
    # cut ranks absolutely to avoid reading roundoff noise as rank
    coords = matcore.null_space(a.T, floor=1.0)
    if coords.shape[0] == 0:
        return np.zeros((0, n, n), dtype=np.complex128)
    z = np.einsum("ct,tab->cab", coords, basis)
    return orthonormalize(z)


def _spectral_projections(h, gap=EIG_GAP):
    """Group the spectrum of a Hermitian matrix by relative gap and return
    the spectral projections, or None when two groups nearly collide."""
    w, u = matcore.herm_eig(h)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    groups = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) <= gap * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    # refuse when distinct groups are close but not merged (ambiguous band)
    for g1, g2 in zip(groups, groups[1:]):
        d = abs(w[g1[-1]] - w[g2[0]])
        if gap * scale < d < 10 * gap * scale:
            return None
    projs = []
    for g in groups:
        cols = u[:, g]
        projs.append(hermitize(cols @ cols.conj().T))
    return projs


def _random_central_projections(alg, zbasis, rng):
    hb = hermitian_part_basis(zbasis)
    coeff = rng.standard_normal(hb.shape[0])
    h = np.einsum("t,tab->ab", coeff, hb)
    # restrict to the support of the algebra: add a shifted unit so the
    # kernel of e stays one clean spectral group far from the rest
    shift = 3.0 * (np.abs(h).max(initial=0.0) + 1.0)
    probe = h + shift * alg.unit
    projs = _spectral_projections(probe)
    if projs is None:
        return None
    # drop the spectral group at eigenvalue ~0 (the complement of e)
    out = []
    for p in projs:
        if np.abs(p @ alg.unit - p).max() <= 1e-7:
            out.append(p)
    return out


def minimal_central_projections(alg: AlgebraPresentation, seed: int = 0) -> list[np.ndarray]:
    """Minimal central projections of the algebra.

    A random Hermitian central element is eigendecomposed and its spectral
    projections grouped by gap.  They are accepted when they are verified
    central, idempotent, selfadjoint, pairwise orthogonal and summing to
    the unit, and there are exactly dim Z of them: r orthogonal nonzero
    projections in an r-dimensional commutative algebra are its minimal
    ones.  A sample that merges blocks fails the count and is redrawn."""
    zbasis = center(alg)
    if zbasis.shape[0] == 0:
        raise NotAFactor("algebra has empty center; closure failed upstream")
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(MAX_RETRIES):
        projs = _random_central_projections(alg, zbasis, rng)
        if projs is None:
            last = "spectral collision"
            continue
        if len(projs) != zbasis.shape[0]:
            last = f"{len(projs)} projections for a center of dimension {zbasis.shape[0]}"
            continue
        if not _verify_central_partition(alg, projs):
            last = "verification failure"
            continue
        return sorted(projs, key=lambda p: (-round(np.real(np.trace(p))), _trace_key(p)))
    raise DegenerateSample(f"central splitting failed after {MAX_RETRIES} retries: {last}")


def _trace_key(p):
    # deterministic tiebreaker: fingerprint of the diagonal
    return tuple(np.round(np.real(np.diagonal(p)), 9))


def _verify_central_partition(alg, projs, tol=1e-8):
    total = np.zeros_like(alg.unit)
    for p in projs:
        if np.abs(p @ p - p).max() > tol or np.abs(p - p.conj().T).max() > tol:
            return False
        for b in alg.basis:
            if np.abs(p @ b - b @ p).max() > tol:
                return False
        if not alg.contains(p, tol=tol):
            return False
        total = total + p
    for p in projs:
        for q in projs:
            if p is not q and np.abs(p @ q).max() > tol:
                return False
    return np.abs(total - alg.unit).max() <= tol


@dataclass
class BlockInfo:
    """One retained Wedderburn block.

    ``projection``: the minimal central projection p in ambient coordinates.
    ``k``: full-matrix size, ``m``: multiplicity (rank p = k m).
    ``copy``: (n, k) isometry onto one irreducible copy inside range(p), a
    subspace the algebra leaves invariant and acts on as all of M_k; for
    m = 1 it spans range(p).
    """

    projection: np.ndarray
    k: int
    m: int
    copy: np.ndarray

    @property
    def rank(self) -> int:
        return self.k * self.m

    def strip(self, b) -> np.ndarray:
        """The k x k component of an algebra element on this block: its
        compression to the copy, a *-homomorphism of the algebra onto M_k."""
        return self.copy.conj().T @ np.asarray(b, dtype=np.complex128) @ self.copy


@dataclass
class BlockDecomposition:
    """Full Wedderburn data: minimal central projections with block sizes
    (k_i, m_i) and one irreducible copy per block."""

    blocks: list[BlockInfo]

    @property
    def block_sizes(self) -> list[tuple[int, int]]:
        return [(b.k, b.m) for b in self.blocks]

    @property
    def abstract_blocks(self) -> tuple[int, ...]:
        """Multiset of full-matrix sizes, multiplicities stripped."""
        return tuple(sorted((b.k for b in self.blocks), reverse=True))


def strip_multiplicity(alg: AlgebraPresentation, p, seed: int = 0) -> BlockInfo:
    """Identify the compressed block algebra with M_k repeated m times.

    Within range(p) the compressed algebra B p is a factor, B p = M_k ⊗ 1_m
    up to a unitary: k^2 = dim and m = rank / k.  For m > 1 one copy is cut
    out.  A unit vector xi in an eigenspace of a random Hermitian element
    of B p is a product vector, so B p xi is one irreducible copy; its
    orthonormal basis c must have rank exactly k.  Two checks certify it:
    B p leaves range(c) invariant (the reduction residual
    ||b c - c (c* b c)|| over the basis), so compression to it is a
    *-homomorphism; and the images c* b c of the HS-orthonormal basis of
    B p have HS Gram matrix I/m, so that homomorphism is injective, hence
    onto M_k.  A sample whose eigenvalue is not simple on M_k fails them
    and is redrawn."""
    p = hermitize(p)
    v = matcore.support_isometry(p)
    rank = v.shape[1]
    comp_basis = orthonormalize(np.einsum("ia,tab,bj->tij", v.conj().T, alg.basis, v))
    dim = comp_basis.shape[0]
    k = int(round(np.sqrt(dim)))
    if k * k != dim:
        raise NotAFactor(f"compressed block dimension {dim} is not a perfect square")
    m, rem = divmod(rank, k)
    if rem:
        raise NotAFactor(f"rank {rank} not divisible by block size {k}")
    if m == 1:
        return BlockInfo(projection=p, k=k, m=m, copy=v)
    hb = hermitian_part_basis(comp_basis)
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(MAX_RETRIES):
        h = np.einsum("t,tab->ab", rng.standard_normal(hb.shape[0]), hb)
        xi = matcore.herm_eig(h)[1][:, 0]
        u, sv, _ = np.linalg.svd((comp_basis @ xi).T, full_matrices=False)
        cyclic_rank = int(np.sum(sv > 1e-8 * sv[0]))
        if cyclic_rank != k:
            last = f"cyclic subspace of rank {cyclic_rank} != k = {k}"
            continue
        c = u[:, :k]
        images = c.conj().T @ comp_basis @ c
        reduction = float(np.abs(comp_basis @ c - c @ images).max())
        gram = np.einsum("sab,tab->st", images.conj(), images)
        gram_residual = float(np.abs(m * gram - np.eye(dim)).max())
        if max(reduction, gram_residual) <= 1e-7:
            return BlockInfo(projection=p, k=k, m=m, copy=v @ c)
        last = f"reduction residual {reduction:.2e}, Gram residual {gram_residual:.2e}"
    raise DegenerateSample(f"multiplicity stripping failed after {MAX_RETRIES} retries: {last}")


def decompose(alg: AlgebraPresentation, seed: int = 0) -> BlockDecomposition:
    """Minimal central projections plus per-block stripping data."""
    projs = minimal_central_projections(alg, seed=seed)
    blocks = [strip_multiplicity(alg, p, seed=seed + 101 * (i + 1))
              for i, p in enumerate(projs)]
    return BlockDecomposition(blocks=blocks)
