"""Wedderburn structure of a finite-dimensional matrix *-algebra.

Center, minimal central projections, and multiplicity stripping: the
algebra is presented as a direct sum of full matrix blocks M_k repeated
with multiplicity m.  Splitting is randomized (spectral projections of a
random central element, then of a random commutant element on each block)
and every sample is cross-checked against a re-randomized run instead of
being trusted.
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
    projections grouped by gap; the partition must reproduce under a fresh
    sample before it is accepted.  Each projection is verified central,
    idempotent and selfadjoint, and they sum to the unit."""
    zbasis = center(alg)
    if zbasis.shape[0] == 0:
        raise NotAFactor("algebra has empty center; closure failed upstream")
    rng = np.random.default_rng(seed)
    last = None
    for attempt in range(MAX_RETRIES):
        first = _random_central_projections(alg, zbasis, rng)
        second = _random_central_projections(alg, zbasis, rng)
        if first is None or second is None:
            last = "spectral collision"
            continue
        if len(first) != len(second):
            last = "partition mismatch"
            continue
        # match projections of the two runs by trace pairing
        matched = _match_projections(first, second)
        if matched is None:
            last = "partition mismatch"
            continue
        projs = first
        if not _verify_central_partition(alg, projs):
            last = "verification failure"
            continue
        return sorted(projs, key=lambda p: (-round(np.real(np.trace(p))), _trace_key(p)))
    raise DegenerateSample(f"central splitting failed after {MAX_RETRIES} retries: {last}")


def _trace_key(p):
    # deterministic tiebreaker: fingerprint of the diagonal
    return tuple(np.round(np.real(np.diagonal(p)), 9))


def _match_projections(first, second, tol=1e-7):
    used = set()
    for p in first:
        hit = None
        for j, q in enumerate(second):
            if j in used:
                continue
            if np.abs(p - q).max() <= tol * max(1.0, np.abs(p).max()):
                hit = j
                break
        if hit is None:
            return None
        used.add(hit)
    return True


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
    ``range_basis``: (rank, n) isometry columns spanning range(p).
    ``aligner``: unitary Q on range(p) coordinates conjugating each
    compressed algebra element to a k x k block repeated m times.
    """

    projection: np.ndarray
    k: int
    m: int
    range_basis: np.ndarray
    aligner: np.ndarray

    @property
    def rank(self) -> int:
        return self.k * self.m

    def strip(self, b) -> np.ndarray:
        """The k x k component of an algebra element on this block."""
        comp = self.range_basis.conj().T @ np.asarray(b, dtype=np.complex128) @ self.range_basis
        aligned = self.aligner.conj().T @ comp @ self.aligner
        return np.array(aligned[: self.k, : self.k])

    def conjugation_residual(self, b) -> float:
        comp = self.range_basis.conj().T @ np.asarray(b, dtype=np.complex128) @ self.range_basis
        aligned = self.aligner.conj().T @ comp @ self.aligner
        model = np.kron(np.eye(self.m), aligned[: self.k, : self.k])
        return float(np.abs(aligned - model).max(initial=0.0))


@dataclass
class BlockDecomposition:
    """Full Wedderburn data: minimal central projections with block sizes
    (k_i, m_i) and per-block alignment isometries."""

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

    Within range(p) the compressed algebra is a factor: k^2 = dim, and a
    random Hermitian element of its commutant splits range(p) into m
    eigenspaces of dimension k.  Schur intertwiners align the copies, and
    the conjugation residual is verified before returning."""
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
    rng = np.random.default_rng(seed)
    last = None
    for attempt in range(MAX_RETRIES):
        try:
            aligner = _align_block(comp_basis, rank, k, m, rng)
        except DegenerateSample as exc:
            last = str(exc)
            continue
        info = BlockInfo(projection=p, k=k, m=m, range_basis=v, aligner=aligner)
        worst = max(info.conjugation_residual(v @ cb @ v.conj().T) for cb in comp_basis)
        if worst <= 1e-7:
            return info
        last = f"conjugation residual {worst:.2e}"
    raise DegenerateSample(f"multiplicity stripping failed after {MAX_RETRIES} retries: {last}")


def _align_block(comp_basis, rank, k, m, rng):
    """Unitary Q with Q* (compressed b) Q = 1_m ⊗ (k x k block) for all b."""
    if m == 1:
        # single copy: any orthonormal coordinates work
        return np.eye(rank, dtype=np.complex128)
    # commutant of the compressed algebra inside M_rank; with row-major
    # vectorization, vec(Z b - b Z) = (I ⊗ b^T - b ⊗ I) vec(Z)
    eye = np.eye(rank, dtype=np.complex128)
    rows = [np.kron(eye, bj.T) - np.kron(bj, eye) for bj in comp_basis]
    a = np.concatenate(rows, axis=0)
    comm = matcore.null_space(a, rtol=1e-9, floor=1.0).reshape(-1, rank, rank)
    if comm.shape[0] != m * m:
        raise DegenerateSample(
            f"commutant dimension {comm.shape[0]} != m^2 = {m * m}")
    hb = hermitian_part_basis(comm)
    h = np.einsum("t,tab->ab", rng.standard_normal(hb.shape[0]), hb)
    projs = _spectral_projections(hermitize(h))
    if projs is None or len(projs) != m:
        raise DegenerateSample("commutant sample did not split into m eigenspaces")
    cols = []
    for pr in projs:
        w, u = matcore.herm_eig(pr)
        cols.append(u[:, :k])
    # intertwiners aligning copy j with copy 0
    d0 = [cols[0].conj().T @ cb @ cols[0] for cb in comp_basis]
    aligned_cols = [cols[0]]
    for j in range(1, m):
        dj = [cols[j].conj().T @ cb @ cols[j] for cb in comp_basis]
        a_j = _schur_intertwiner(dj, d0)
        if a_j is None:
            raise DegenerateSample("no unitary intertwiner between copies")
        aligned_cols.append(cols[j] @ a_j)
    q = np.concatenate(aligned_cols, axis=1)
    # columns ordered copy-major: Q*bQ = blkdiag(x, x, ..., x) = 1_m ⊗ x
    return q


def _schur_intertwiner(dj, d0):
    """Unitary A with dj[t] A = A d0[t] for all t (one-dimensional Schur
    solution space, normalized to a unitary).

    With row-major vectorization, vec(dj A - A d0) =
    (dj ⊗ I - I ⊗ d0^T) vec(A)."""
    k = d0[0].shape[0]
    eye = np.eye(k, dtype=np.complex128)
    rows = [np.kron(a, eye) - np.kron(eye, b.T) for a, b in zip(dj, d0)]
    a = np.concatenate(rows, axis=0)
    null = matcore.null_space(a, rtol=1e-9, floor=1.0)
    if null.shape[0] != 1:
        return None
    cand = null[0].reshape(k, k)
    # Schur: the solution is a scalar multiple of a unitary
    u, sv, wh = np.linalg.svd(cand)
    if sv[0] < 1e-10 or (sv[0] - sv[-1]) > 1e-6 * sv[0]:
        return None
    return u @ wh


def decompose(alg: AlgebraPresentation, seed: int = 0) -> BlockDecomposition:
    """Minimal central projections plus per-block stripping data."""
    projs = minimal_central_projections(alg, seed=seed)
    blocks = [strip_multiplicity(alg, p, seed=seed + 101 * (i + 1))
              for i, p in enumerate(projs)]
    return BlockDecomposition(blocks=blocks)
