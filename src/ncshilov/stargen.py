"""Generation of *-algebra and *-TRO closures of a matrix generating set.

A space is presented by any spanning set of n x n matrices; adjoints are
adjoined automatically (with a flag) so the validated space is selfadjoint.
Closures are computed by passes that multiply the current span by the
generators only (X + X* for the algebra, span(Z Z*) for the triple
products), with Hilbert-Schmidt orthonormalization, so each pass costs
d |B| products rather than |B|^2.
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


def generate_star_algebra(x: MatrixSpace | np.ndarray) -> AlgebraPresentation:
    """Smallest *-subalgebra of M_n containing the space.

    With S an orthonormal basis of X + X*, each pass takes
    B <- span(B ∪ S B), starting from B = S, until the dimension stops
    growing (at most n^2 passes); then S B ⊆ B, so B is closed under left
    multiplication by every word in S, hence under products.  The unit
    projection is attached at the end.
    """
    basis = x.basis if isinstance(x, MatrixSpace) else np.asarray(x, dtype=np.complex128)
    gens = orthonormalize(np.concatenate([basis, basis.conj().transpose(0, 2, 1)]))
    basis = _left_closure(gens, gens)
    return AlgebraPresentation(basis=basis, unit=unit_projection(basis))


def generate_tro(x: MatrixSpace | np.ndarray) -> np.ndarray:
    """Smallest subspace closed under a b* c containing the space.

    Z = X + X* is *-closed, so the triple products of the closure are
    spanned by words x1 y1* x2 y2* ... z with letters in Z; with
    L = span{x y* : x, y in Z}, computed once, each pass takes
    T <- span(T ∪ L T) until the dimension stops growing.
    """
    basis = x.basis if isinstance(x, MatrixSpace) else np.asarray(x, dtype=np.complex128)
    basis = orthonormalize(np.concatenate([basis, basis.conj().transpose(0, 2, 1)]))
    n = basis.shape[1]
    left = orthonormalize(np.einsum("iab,jcb->ijac", basis, basis.conj()).reshape(-1, n, n))
    return _left_closure(left, basis)


def _left_closure(left, basis):
    """Smallest span containing ``basis`` and closed under left
    multiplication by the span of ``left``, orthonormalized: passes of
    B <- span(B ∪ left B) until the dimension stops growing."""
    n = basis.shape[1]
    for _ in range(n * n):
        prods = np.einsum("iab,jbc->ijac", left, basis).reshape(-1, n, n)
        new = orthonormalize(np.concatenate([basis, prods]))
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
    """Verdict of :func:`cone_spans` with its certificate.  lambda* is the
    largest lambda_min(u|R) over trace-one positive u in X, R the joint range.

    ``spans``: certified by ``positive_basis``, d trace-one positives of X
    spanning it, the order unit u first (empty when not spanning).
    ``span_dim``: d when spanning, 0 when the cone is {0}, else None.
    ``inconclusive``: neither certificate verified (solver failure or cap).
    ``margin_bound``: lambda_min(u|R) <= lambda* when spanning, else an
    upper bound lambda* <= margin_bound <= tol (-inf when no element of X
    has trace one); NaN when inconclusive.  ``certificate``: when not
    spanning, W >= 0 of trace one on R, orthogonal to X up to the residual
    counted in ``margin_bound``.  ``diagnostics``: how an inconclusive
    solve ended."""

    spans: bool
    positive_basis: np.ndarray
    span_dim: int | None
    inconclusive: bool = False
    margin_bound: float = np.nan
    certificate: np.ndarray | None = None
    diagnostics: str = ""


def cone_spans(x: MatrixSpace, tol: float = 1e-7) -> ConeSpanResult:
    """Decide whether span(X ∩ PSD) = X, at tolerance ``tol``.

    R is the joint range of X (the range of sum_t h_t^2 over the Hermitian
    basis).  By the theorem of alternatives for a subspace and the PSD cone
    (Boyd & Vandenberghe, *Convex Optimization*, §5.8) either X holds some
    u >= 0 definite on R, so X spans its cone (each Hermitian h in X is
    c u - (c u - h) with c = ||h|| / lambda_min(u|R)), or some W >= 0,
    nonzero on R, is orthogonal to X, so positives of X have range in
    ker W.  These are the dual and the primal side of one margin program
    (:func:`conesolver.solve_dual_margin`): maximize lambda_min over the
    trace-one elements of X compressed to R, written as c0 + sum_j u_j F_j
    with c0 the least-norm trace-one element and F_j an ON basis of the
    trace-zero elements, with optimum lambda*.  The one solve stops as soon
    as either certificate verifies afresh:

    * Spans, from the dual side: u, the iterate's trace-one element of X,
      has lambda_min(u|R) > tol.  The answer is u and 2 c_i u + h_i, scaled
      to trace one, for the d - 1 HS-orthonormal Hermitian directions h_i
      of X orthogonal to u: d positives definite on R that span X.
    * Does not span, from the primal side: W, the PSD part of the
      trace-one primal point scaled to trace one, gives lambda* <= y0 + rho
      <= tol, where y0 is W's pairing with c0 and rho the HS norm of
      W - y0 I projected onto X: a trace-one positive v in X has
      lambda_min(v|R) <= <W, v> = y0 + <W - y0 I, v> <= y0 + rho, as
      ||v||_HS <= 1.  Below zero, no positive element has trace one: the
      cone is {0}.  So is it when no element of X has trace one: then
      W = P_R / r, with no solve.

    A verdict at tolerance, as with :func:`conesolver.cc_test`: Spans iff
    lambda* > tol.  Inconclusive (a solver failure or the iteration cap)
    leaves lambda* within the solver's accuracy of tol."""
    conesolver.check_tol(tol)
    hb = x.hermitian_basis()
    d, n = hb.shape[0], x.ambient_dim
    w, v = matcore.herm_eig(np.einsum("tab,tbc->ac", hb, hb))
    r_basis = v[:, w > 1e-10 * w[0]]
    r = r_basis.shape[1]
    on_r = r_basis.conj().T @ hb @ r_basis  # still HS-orthonormal: X lives on R
    t = np.trace(on_r, axis1=1, axis2=2).real  # the coordinates of P_X(I)
    none = np.zeros((0, n, n), dtype=np.complex128)

    def not_spanning(w_r, bound):
        return ConeSpanResult(spans=False, positive_basis=none,
                              span_dim=0 if bound < 0 else None, margin_bound=bound,
                              certificate=r_basis @ w_r @ r_basis.conj().T)

    tt = float(t @ t)
    if tt <= 1e-24 * r:  # X is orthogonal to I: no element has trace one
        return not_spanning(np.eye(r) / r, -np.inf)
    free = matcore.null_space(t[None])  # trace-zero coordinates

    def stop(u, _lam, points):
        coeffs = t / tt + u @ free
        margin = float(np.linalg.eigvalsh(np.einsum("t,tab->ab", coeffs, on_r))[0])
        if margin > tol:
            return ConeSpanResult(spans=True, positive_basis=_spanning_set(hb, coeffs, margin),
                                  span_dim=d, margin_bound=margin)
        ev, evec = np.linalg.eigh(points[0])
        ev = np.clip(ev, 0.0, None)
        if ev.sum() > 0:
            w_r = (evec * (ev / ev.sum())) @ evec.conj().T
            wc = np.einsum("tab,ab->t", on_r.conj(), w_r).real
            y0 = float(wc @ t) / tt
            bound = y0 + float(np.linalg.norm(wc - y0 * t))
            if bound <= tol:
                return not_spanning(w_r, bound)
        return None

    sol = conesolver.solve_dual_margin([np.einsum("t,tab->ab", t / tt, on_r)],
                                       [np.einsum("jt,tab->jab", free, on_r)], stop)
    return sol.stopped or ConeSpanResult(
        spans=False, positive_basis=none, span_dim=None, inconclusive=True,
        diagnostics=(f"margin solve {sol.status} after {sol.iterations} "
                     f"iterations (gap {sol.gap:.1e})"))


def _spanning_set(hb, coeffs, margin):
    """The order unit u = sum_t coeffs_t hb_t and the lifted positives."""
    u = hermitize(np.einsum("t,tab->ab", coeffs, hb))
    comp = np.einsum("ct,tab->cab", matcore.null_space(coeffs[None]), hb)
    norms = np.linalg.norm(comp, ord=2, axis=(1, 2))
    lifted = [2.0 * nrm / margin * u + h for nrm, h in zip(norms, comp)]
    return np.asarray([u, *(g / np.trace(g).real for g in lifted)])


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


def require_spanning_cone(x: MatrixSpace, tol: float = 1e-7) -> ConeSpanResult:
    """The cone_spans result when the cone spans.  Raises ConeDoesNotSpan,
    carrying W and the margin bound, when it does not, and
    InconclusiveAtTolerance when the solve gave neither certificate."""
    result = cone_spans(x, tol=tol)
    if result.inconclusive:
        raise InconclusiveAtTolerance(
            f"spanning-cone test without a certificate: {result.diagnostics}")
    if not result.spans:
        zero = " (the cone is {0})" if result.span_dim == 0 else ""
        raise ConeDoesNotSpan(
            f"positive cone does not span the space{zero}: a separator W bounds lambda_min "
            f"of trace-one positives by {result.margin_bound:.3g} <= tol {tol:g}",
            certificate=result.certificate, bound=result.margin_bound)
    return result
