"""Dense complex matrix kernel.

Everything downstream (algebra closures, the conic solver, the envelope
pipeline) reduces to a handful of primitives on complex matrices: Hermitian
eigendecomposition, operator norms, PSD tests with witnesses, the
Hilbert-Schmidt geometry used to orthonormalize bases of matrix subspaces,
and amplification of space elements to matrix levels.

Matrices are plain ``numpy.ndarray`` values with dtype complex128.  A
"CMatrix" is any finite 2-d complex array; a "HermMatrix" is a square one
that has been symmetrized through :func:`hermitize`.  All tolerances are
relative to the matrix scale with an absolute floor of 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ncshilov.errors import NonFinite, RankAmbiguous, ShapeMismatch

ABS_FLOOR = 1e-12

# Numerical-rank policy for span closures: relative to the largest, singular
# values at or above the band's top count toward the rank, those at or below
# its bottom are zero, and values inside the band are refused, not guessed.
RANK_BAND = (1e-10, 1e-6)


def _require_finite(m):
    if not np.isfinite(m).all():
        raise NonFinite("matrix has NaN or Inf entries")


def as_cmatrix(a) -> np.ndarray:
    """Validate and coerce to a finite 2-d complex128 array."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    _require_finite(m)
    return m


def hermitize(a, rtol: float = 1e-12) -> np.ndarray:
    """Validate Hermitian-ness and return the exactly symmetrized matrix.

    The deviation ||M - M*|| must not exceed ``rtol * ||M||`` (with the
    absolute floor); the returned matrix is (M + M*)/2.  A stack of shape
    (..., n, n) is validated matrix by matrix, each against its own scale,
    and symmetrized as a whole.
    """
    m = np.array(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    _require_finite(m)
    if m.shape[-2] != m.shape[-1]:
        raise ShapeMismatch(f"Hermitian matrix must be square, got {m.shape[-2:]}")
    mh = m.conj().swapaxes(-2, -1)
    scale = np.maximum(np.abs(m).max(axis=(-2, -1), initial=0.0), 1.0)
    dev = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
    if (dev > rtol * scale + ABS_FLOOR).any():
        raise ShapeMismatch(
            f"matrix is not Hermitian: deviation {dev.max():.3e} exceeds {rtol:.1e} * scale"
        )
    return 0.5 * (m + mh)


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` sorted descending and unitary
    ``u`` whose columns are the matching eigenvectors, so that
    ``u @ diag(w) @ u.conj().T`` reconstructs the input.
    """
    h = hermitize(m, rtol=1e-10)
    w, u = np.linalg.eigh(h)
    return w[::-1].copy(), u[:, ::-1].copy()


def op_norm(m) -> float:
    """Largest singular value."""
    return float(op_norms(as_cmatrix(m)))


def op_norms(stack) -> np.ndarray:
    """Largest singular value of every matrix of a stack (..., p, q), from
    one batched SVD; the result has the stack's leading shape.

    Each value is bit for bit the :func:`op_norm` of that matrix (LAPACK
    sees the same matrix either way), so a sampler that draws its elements
    in the order a per-sample loop would, and takes their norms here,
    returns exactly what that loop returned.  NaN or Inf entries raise
    NonFinite; a matrix without entries has norm 0.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a stack of matrices, got ndim={a.ndim}")
    _require_finite(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class PsdResult:
    """Outcome of a PSD test: ``positive`` or a witness vector with
    ``witness* M witness = witness_value < -tol``."""

    positive: bool
    min_eig: float
    witness: np.ndarray | None = None
    witness_value: float | None = None


def psd_check(m, tol: float = 1e-9) -> PsdResult:
    """Decide M >= 0 up to ``tol``: positive iff min eigenvalue >= -tol.

    When indefinite, the eigenvector of the most negative eigenvalue is
    returned as a witness.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w, u = herm_eig(m)
    mn = float(w[-1])
    if mn >= -tol:
        return PsdResult(positive=True, min_eig=mn)
    xi = u[:, -1]
    val = float(np.real(xi.conj() @ np.asarray(m, dtype=np.complex128) @ xi))
    return PsdResult(positive=False, min_eig=mn, witness=xi, witness_value=val)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(b* a)."""
    ma, mb = as_cmatrix(a), as_cmatrix(b)
    if ma.shape != mb.shape:
        raise ShapeMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    return complex(np.sum(mb.conj() * ma))


def amplify(coeffs, basis) -> np.ndarray:
    """Assemble a level-k element of the space spanned by ``basis``.

    ``coeffs`` has shape (k, k, d); the result is the kn x kn matrix whose
    (i, j) block is sum_t coeffs[i, j, t] * basis[t].  A stack of
    coefficient tensors (S, k, k, d) gives the stack of S elements, each
    bit for bit the one assembled alone.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    stack = np.asarray(basis, dtype=np.complex128)
    if stack.ndim == 2:
        stack = stack[None]
    if c.ndim not in (3, 4) or c.shape[-3] != c.shape[-2]:
        raise ShapeMismatch(f"coeffs must have shape (k, k, d) or (S, k, k, d), got {c.shape}")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeMismatch("basis elements must be square and share shape")
    if c.shape[-1] != stack.shape[0]:
        raise ShapeMismatch(
            f"coefficient depth {c.shape[-1]} does not match basis size {stack.shape[0]}"
        )
    k = c.shape[-2]
    n = stack.shape[1]
    blocks = np.einsum("sijt,tab->siajb", c.reshape((-1,) + c.shape[-3:]), stack)
    return blocks.reshape(c.shape[:-3] + (k * n, k * n))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt geometry of matrix subspaces
# ---------------------------------------------------------------------------


def _orthonormal_span(stack, real: bool) -> np.ndarray:
    """HS-orthonormal basis (r, p, q) of the complex span of a stack of
    matrices, or of its real span in realified coordinates (Re, Im
    stacked), from one SVD whose singular values also fix the rank.

    Raises :class:`RankAmbiguous` when any singular value falls inside
    RANK_BAND relative to the largest: downstream closure dimensions must
    be crisp, so near-threshold ranks are refused, not guessed.
    """
    s = np.asarray(stack, dtype=np.complex128)
    if s.ndim != 3:
        raise ShapeMismatch("expected a stack of matrices with shape (d, p, q)")
    d, p, q = s.shape
    rows = s.reshape(d, p * q)
    if real:
        rows = np.concatenate([rows.real, rows.imag], axis=1)
    if d:
        _, sv, vh = np.linalg.svd(rows, full_matrices=False)
        rel = sv / sv[0] if sv[0] > 0 else np.zeros_like(sv)
        lo, hi = RANK_BAND
        ambiguous = (rel > lo) & (rel < hi)
        if ambiguous.any():
            raise RankAmbiguous(f"singular value ratios {rel[ambiguous]} in the band {RANK_BAND}")
        rows = vh[: int(np.sum(rel >= hi))]
    if real:
        rows = rows[:, : p * q] + 1j * rows[:, p * q :]
    return rows.reshape(-1, p, q).copy()


def orthonormalize(stack) -> np.ndarray:
    """Orthonormal (HS) basis of the complex span of a stack of matrices: a
    (r, p, q) stack with HS-orthonormal slices spanning the same space."""
    return _orthonormal_span(stack, real=False)


def orthonormalize_real(stack) -> np.ndarray:
    """Orthonormal basis of the REAL span of a stack of matrices: its slices
    are real-linear combinations of the inputs; used for Hermitian
    (selfadjoint-part) bases where only real coefficients are allowed."""
    return _orthonormal_span(stack, real=True)


def null_space(a, rtol: float = 1e-10, floor: float = 0.0) -> np.ndarray:
    """Orthonormal rows N spanning the kernel of ``a`` (``a @ N.T = 0``).

    One full SVD; singular values above ``rtol * max(s_max, floor)`` count
    toward the rank, so ``floor`` makes the cut absolute for operators of
    known O(1) scale.  An ``a`` without rows has the whole space as kernel.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > rtol * max(s[0], floor))) if s.size else 0
    return vh[rank:].conj()


def support_isometry(p) -> np.ndarray:
    """Orthonormal columns spanning the range of a Hermitian projection."""
    w, u = herm_eig(p)
    return u[:, : int(np.sum(w > 0.5))]


def project_coeffs(stack, m) -> np.ndarray:
    """Coefficients of ``m`` against an HS-orthonormal stack."""
    s = np.asarray(stack, dtype=np.complex128)
    return np.einsum("tab,ab->t", s.conj(), np.asarray(m, dtype=np.complex128))


def project_onto_span(stack, m) -> np.ndarray:
    """HS-orthogonal projection of ``m`` onto the span of an ON stack."""
    c = project_coeffs(stack, m)
    return np.einsum("t,tab->ab", c, np.asarray(stack, dtype=np.complex128))


def span_residual(stack, m) -> float:
    """Distance (HS) from ``m`` to the span of an ON stack, relative to ||m||."""
    mm = np.asarray(m, dtype=np.complex128)
    nm = np.linalg.norm(mm)
    if nm == 0:
        return 0.0
    return float(np.linalg.norm(mm - project_onto_span(stack, mm)) / nm)


def hermitian_part_basis(stack):
    """Real-orthonormal basis of the selfadjoint part of a *-closed span.

    From a complex ON basis of a *-closed subspace, build candidates
    (b + b*)/2 and i(b - b*)/2 and real-orthonormalize; for a genuinely
    *-closed span of complex dimension d the result has d slices.
    """
    s = np.asarray(stack, dtype=np.complex128)
    cands = np.concatenate([0.5 * (s + s.conj().transpose(0, 2, 1)),
                            0.5j * (s - s.conj().transpose(0, 2, 1))], axis=0)
    basis = orthonormalize_real(cands)
    return np.ascontiguousarray(0.5 * (basis + basis.conj().transpose(0, 2, 1)))


# Real isometric vectorization of Hermitian matrices: diagonal entries,
# then sqrt(2)-scaled real and imaginary parts of the upper triangle.
@lru_cache(maxsize=None)
def _triu_cache(n):
    iu = np.triu_indices(n, k=1)
    return iu[0].copy(), iu[1].copy()


def herm_to_rvec(h) -> np.ndarray:
    """Vectorize a Hermitian matrix, or each of a stack along the last axes."""
    m = np.asarray(h, dtype=np.complex128)
    n = m.shape[-1]
    iu = _triu_cache(n)
    upper = m[..., iu[0], iu[1]]
    return np.concatenate([m.diagonal(axis1=-2, axis2=-1).real,
                           np.sqrt(2.0) * upper.real,
                           np.sqrt(2.0) * upper.imag], axis=-1)


def rvec_to_herm(v, n) -> np.ndarray:
    """Inverse of :func:`herm_to_rvec`; a stack of vectors gives a stack."""
    v = np.asarray(v, dtype=np.float64)
    m = np.zeros(v.shape[:-1] + (n, n), dtype=np.complex128)
    d = np.arange(n)
    m[..., d, d] = v[..., :n]
    iu = _triu_cache(n)
    k = len(iu[0])
    upper = (v[..., n : n + k] + 1j * v[..., n + k : n + 2 * k]) / np.sqrt(2.0)
    m[..., iu[0], iu[1]] = upper
    m[..., iu[1], iu[0]] = upper.conj()
    return m


def herm_block_coords(n, lo, k) -> np.ndarray:
    """Positions, among the :func:`herm_to_rvec` coordinates of an n x n
    matrix, of the coordinates of its k x k diagonal block at offset
    ``lo``, in the block's own coordinate order."""
    i, j = _triu_cache(n)
    slot = np.zeros((n, n), dtype=int)
    slot[i, j] = n + np.arange(i.size)
    a, b = _triu_cache(k)
    upper = slot[lo + a, lo + b]
    return np.concatenate([lo + np.arange(k), upper, upper + i.size])


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n) -> np.ndarray:
    g = random_complex(rng, (n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n) -> np.ndarray:
    g = random_complex(rng, (n, n))
    return g @ g.conj().T
