"""Generation of *-algebra and *-TRO closures of a matrix generating set.

A space is presented by any spanning set of n x n matrices; adjoints are
adjoined automatically (with a flag) so the validated space is selfadjoint.
Closures are computed by alternating pairwise-product passes with
Hilbert-Schmidt orthonormalization; the triple-product closure iterates
span(Z Z*) first, which keeps the work polynomial in the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ncshilov import conesolver, matcore
from ncshilov.errors import (
    ConeDoesNotSpan,
    InconclusiveAtTolerance,
    ShapeMismatch,
    UnitNotInAlgebra,
    ZeroSpace,
)
from ncshilov.matcore import (
    hermitian_part_basis,
    hermitize,
    orthonormalize,
    span_residual,
)

CONE_INHERITED = "inherited"


@dataclass
class MatrixSpace:
    """A selfadjoint subspace of M_n with HS-orthonormal basis.

    ``cone_mode`` is fixed to the inherited cone: positives of M_k(X) are
    the PSD elements at every level.  ``adjoints_added`` records whether the
    presenting generators were not *-closed.
    """

    ambient_dim: int
    basis: np.ndarray  # (d, n, n) HS-orthonormal stack
    adjoints_added: bool = False
    cone_mode: str = CONE_INHERITED
    _herm_basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def hermitian_basis(self) -> np.ndarray:
        """Real-orthonormal basis of the selfadjoint part (cached)."""
        if self._herm_basis is None:
            self._herm_basis = hermitian_part_basis(self.basis)
        return self._herm_basis

    def element(self, coeffs) -> np.ndarray:
        return np.einsum("t,tab->ab", np.asarray(coeffs, dtype=np.complex128), self.basis)

    def coeffs_of(self, m) -> np.ndarray:
        return np.einsum("tab,ab->t", self.basis.conj(), np.asarray(m, dtype=np.complex128))

    def contains(self, m, tol: float = 1e-8) -> bool:
        return span_residual(self.basis, m) <= tol


@dataclass
class AlgebraPresentation:
    """A finite-dimensional *-subalgebra of M_n with its unit projection."""

    basis: np.ndarray  # (d, n, n) HS-orthonormal, closed under products/adjoints
    unit: np.ndarray  # the two-sided unit projection e

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, m, tol: float = 1e-8) -> bool:
        return span_residual(self.basis, m) <= tol


def validate_space(generators) -> MatrixSpace:
    """Validate a generating set and return the selfadjoint span.

    The basis is HS-orthonormal and spans the generators together with
    their adjoints; a flag records when the adjoints enlarged the span.
    """
    gens = [matcore.as_cmatrix(g) for g in generators]
    if not gens:
        raise ZeroSpace("no generators given")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ShapeMismatch("generators must share a square shape")
    stack = np.asarray(gens)
    scale = max(np.abs(stack).max(initial=0.0), 0.0)
    if scale < 1e-12:
        raise ZeroSpace("all generators are numerically zero")
    plain = orthonormalize(stack)
    full = orthonormalize(np.concatenate([stack, stack.conj().transpose(0, 2, 1)]))
    return MatrixSpace(ambient_dim=n, basis=full,
                       adjoints_added=full.shape[0] > plain.shape[0])


def _product_closure_pass(basis):
    """One pass of span(basis ∪ basis * basis), orthonormalized."""
    prods = np.einsum("iab,jbc->ijac", basis, basis).reshape(-1, *basis.shape[1:])
    return orthonormalize(np.concatenate([basis, prods]))


def generate_star_algebra(x: MatrixSpace | np.ndarray) -> AlgebraPresentation:
    """Smallest *-subalgebra of M_n containing the space.

    Iterates pairwise-product closure until the dimension stabilizes
    (bounded by n^2 passes), then attaches the unit projection.
    """
    basis = x.basis if isinstance(x, MatrixSpace) else np.asarray(x, dtype=np.complex128)
    basis = np.concatenate([basis, basis.conj().transpose(0, 2, 1)])
    basis = orthonormalize(basis)
    n = basis.shape[1]
    for _ in range(n * n):
        new = _product_closure_pass(basis)
        if new.shape[0] == basis.shape[0]:
            basis = new
            break
        basis = new
    e = unit_projection(basis)
    return AlgebraPresentation(basis=basis, unit=e)


def generate_tro(x: MatrixSpace | np.ndarray) -> np.ndarray:
    """Smallest subspace closed under a b* c containing the space.

    Each pass computes span(Z Z*) pairwise, orthonormalizes it, and then
    multiplies back into Z, which spans the same triple products as the
    cubic loop at quadratic cost.
    """
    basis = x.basis if isinstance(x, MatrixSpace) else np.asarray(x, dtype=np.complex128)
    basis = np.concatenate([basis, basis.conj().transpose(0, 2, 1)])
    basis = orthonormalize(basis)
    n = basis.shape[1]
    for _ in range(n * n):
        left = np.einsum("iab,jcb->ijac", basis, basis.conj()).reshape(-1, n, n)
        left = orthonormalize(left)
        triples = np.einsum("iab,jbc->ijac", left, basis).reshape(-1, n, n)
        new = orthonormalize(np.concatenate([basis, triples]))
        if new.shape[0] == basis.shape[0]:
            return new
        basis = new
    return basis


def unit_projection(algebra_basis) -> np.ndarray:
    """The two-sided unit of a *-closed algebra span.

    Computed as the range projection of sum_i b_i b_i*; verified to lie in
    the span and act as a two-sided unit on every basis element.
    """
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    n = basis.shape[1]
    gram = np.einsum("iab,icb->ac", basis, basis.conj())
    w, u = matcore.herm_eig(gram)
    top = max(float(w[0]), 0.0)
    rank = int(np.sum(w > 1e-10 * max(top, 1.0)))
    e = u[:, :rank] @ u[:, :rank].conj().T
    e = hermitize(e)
    if span_residual(basis, e) > 1e-8:
        raise UnitNotInAlgebra(
            f"candidate unit has span residual {span_residual(basis, e):.2e}; "
            "algebra closure looks incomplete"
        )
    for b in basis:
        if np.abs(e @ b - b).max() > 1e-8 or np.abs(b @ e - b).max() > 1e-8:
            raise UnitNotInAlgebra("candidate unit does not act as identity")
    return e


@dataclass
class ConeSpanResult:
    spans: bool
    positive_basis: np.ndarray  # (r, n, n) positive elements found
    span_dim: int
    inconclusive: bool = False


def cone_spans(x: MatrixSpace, tol: float = 1e-7, seed: int = 0) -> ConeSpanResult:
    """Decide whether span(X ∩ PSD) = X.

    Greedy extraction over the selfadjoint part: maintain the span S of the
    positives found so far; look for a positive unit-trace element of X with
    a component outside S by maximizing random +/- directions of the
    orthocomplement of S (confirmed with a full basis sweep before giving
    up).  Each probe is a small PSD program with a linear objective, an
    objective solve of :func:`conesolver.solve_feasibility`; a Marginal
    probe makes a negative answer inconclusive, while an Infeasible one
    (no positive trace-one element at all) is conclusive.
    """
    hb = x.hermitian_basis()
    d = hb.shape[0]
    n = x.ambient_dim
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    inconclusive = False
    while len(found) < d:
        comp = _orthocomplement_within(hb, found)
        if comp.shape[0] == 0:
            break
        got = None
        gauss = rng.standard_normal(comp.shape[0])
        directions = [np.einsum("c,cab->ab", gauss / np.linalg.norm(gauss), comp)]
        marginal_seen = False
        # random probe first, full sweep as confirmation
        for w in [*directions, *comp]:
            for sign in (1.0, -1.0):
                cand, marginal = _max_direction_positive(x, sign * w, tol)
                if marginal:
                    marginal_seen = True
                if cand is not None:
                    got = cand
                    break
            if got is not None:
                break
        if got is None:
            inconclusive = marginal_seen
            break
        found.append(got)
    span_dim = len(found)
    if span_dim:
        pos_basis = matcore.orthonormalize_real(np.asarray(found))
        span_dim = pos_basis.shape[0]
    return ConeSpanResult(spans=span_dim == d,
                          positive_basis=np.asarray(found),
                          span_dim=span_dim,
                          inconclusive=inconclusive)


def _orthocomplement_within(hb, found):
    """Real-ON basis of the orthocomplement of span(found) inside span(hb)."""
    if not found:
        return hb
    f = np.asarray(found)
    proj = np.einsum("tab,sab->ts", hb.conj(), f).real  # components of found in hb coords
    return np.einsum("ct,tab->cab", matcore.null_space(proj.T), hb)


def _max_direction_positive(x: MatrixSpace, w, tol):
    """Maximize Re<w, v> over {v in X, v PSD, trace v = 1}; return a
    positive element with strictly positive pairing, or None.

    Returns (element | None, marginal_flag)."""
    n = x.ambient_dim
    # trace one, and the coordinates in the kernel of X's selfadjoint part vanish
    pins = matcore.null_space(matcore.herm_to_rvec(x.hermitian_basis()))
    rows = np.concatenate([matcore.herm_to_rvec(np.eye(n))[None], pins])
    rhs = np.concatenate([[1.0], np.zeros(pins.shape[0])])
    prog = conesolver.ConicProgram([n], rows, rhs,
                                   objective=-matcore.herm_to_rvec(hermitize(w)))
    out = conesolver.solve_feasibility(prog, tol=min(tol, 1e-7))
    if out.status == conesolver.FEASIBLE and out.primal_point is not None:
        v = out.primal_point[0]
        gain = float(np.real(matcore.hs_inner(v, w)))
        if gain > 50 * tol:
            return v, False
        return None, False
    return None, out.status == conesolver.MARGINAL


def tro_equals_algebra(x: MatrixSpace, tol: float = 1e-8) -> bool:
    """True iff the generated *-TRO and *-algebra spans coincide."""
    tro = generate_tro(x)
    alg = generate_star_algebra(x)
    if tro.shape[0] != alg.dim:
        return False
    worst = 0.0
    for b in tro:
        worst = max(worst, span_residual(alg.basis, b))
    for b in alg.basis:
        worst = max(worst, span_residual(tro, b))
    return worst <= tol


def require_spanning_cone(x: MatrixSpace, tol: float = 1e-7, seed: int = 0) -> ConeSpanResult:
    """The cone_spans result, or ConeDoesNotSpan when it conclusively does
    not span; a probe solve without a certificate raises
    InconclusiveAtTolerance instead."""
    result = cone_spans(x, tol=tol, seed=seed)
    if result.inconclusive and not result.spans:
        raise InconclusiveAtTolerance(
            f"positive cone spans at least {result.span_dim} of {x.dim} dimensions; "
            "a probe solve was marginal")
    if not result.spans:
        raise ConeDoesNotSpan(
            f"positive cone spans only {result.span_dim} of {x.dim} dimensions"
        )
    return result
