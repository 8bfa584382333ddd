"""Conic feasibility and norm minimization over products of PSD cones.

Two program shapes, each with its own engine:

* :class:`ConicProgram` holds scalar pairing constraints
  ``sum_v Re<F_jv, X_v> = rhs_j`` against Hermitian variable blocks, with an
  optional real-linear objective.  It is solved by a first-order engine
  (ADMM / Douglas-Rachford splitting between the affine subspace and the
  PSD-cone product); the affine projection comes from a one-time
  orthonormalization of the constraint rows.

* :class:`ChoiAgreementProgram` is the structured program behind the
  complete-contractivity oracle: a Choi variable constrained to agree, as a
  linear map, with a given map on a Hermitian orthonormal family, plus one
  scalar scaling variable.  Its largest admissible scaling is found by a
  dense primal-dual interior-point method (HKM direction, Mehrotra
  predictor-corrector steps).

The complete-contractivity test reduces, as usual, to complete positivity
of the associated unital map on the 2x2 operator system over the map's
domain: ``cb-norm(psi) <= 1/s`` iff the s-scaled system map admits a
completely positive extension to the full matrix algebra, iff a Choi
matrix of size (2p)(2q) is PSD under the agreement constraints.  We
maximize the admissible scaling s, so 1/s* is the cb-norm.  A
CompletelyContractive verdict does not rest on the solver's own status:
on the returned point the Choi matrix is shifted to be PSD, with a margin
that covers the rounding error of its computed eigenvalues, and the
agreement residuals are recomputed; from these and s follows an upper
bound on the cb-norm (:func:`_certified_cb_bound`), which must be at most
1 + tol.  Otherwise the same solve supplies the answer No: its dual slack
yields a level-q element y of the domain (:func:`_dual_witness`), and
||psi_q(y)|| / ||y||, recomputed directly from y, must exceed 1 + tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ncshilov import matcore
from ncshilov.errors import BadProgram, InconclusiveAtTolerance, ShapeMismatch
from ncshilov.matcore import (
    amplify,
    herm_to_rvec,
    hs_inner,
    op_norm,
    orthonormalize,
    random_complex,
    rvec_to_herm,
)

MAX_ITER = 50_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"

CC_YES = "completely_contractive"
CC_NO = "not_completely_contractive"
CC_MARGINAL = "marginal"


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


@dataclass
class ConicProgram:
    """Feasibility/optimization data over Hermitian PSD blocks.

    ``block_dims``: sizes of the PSD variable blocks.
    ``constraints``: list of (coeffs, rhs) where coeffs holds one Hermitian
    matrix (or None) per block and the constraint reads
    ``sum_v Re trace(coeffs[v] X_v) = rhs``.
    ``objective``: optional list of Hermitian matrices per block; the engine
    minimizes ``sum_v Re trace(objective[v] X_v)``.
    """

    block_dims: list[int]
    constraints: list[tuple[list, float]] = field(default_factory=list)
    objective: list | None = None

    def __post_init__(self):
        for coeffs, _rhs in self.constraints:
            if len(coeffs) != len(self.block_dims):
                raise BadProgram("constraint coefficient count != block count")
            for c, n in zip(coeffs, self.block_dims):
                if c is not None and np.asarray(c).shape != (n, n):
                    raise BadProgram(
                        f"coefficient shape {np.asarray(c).shape} != block dim {n}"
                    )
        if self.objective is not None and len(self.objective) != len(self.block_dims):
            raise BadProgram("objective coefficient count != block count")

    def prepare(self):
        dims = self.block_dims
        offsets = np.cumsum([0] + [n * n for n in dims])
        total = int(offsets[-1])
        m = len(self.constraints)
        a = np.zeros((m, total))
        b = np.zeros(m)
        for j, (coeffs, rhs) in enumerate(self.constraints):
            b[j] = rhs
            for v, c in enumerate(coeffs):
                if c is None:
                    continue
                a[j, offsets[v] : offsets[v + 1]] = herm_to_rvec(matcore.hermitize(c))
        cvec = np.zeros(total)
        if self.objective is not None:
            for v, c in enumerate(self.objective):
                if c is not None:
                    cvec[offsets[v] : offsets[v + 1]] = herm_to_rvec(matcore.hermitize(c))
        return _DensePrepared(dims, list(offsets), a, b, cvec)


class _DensePrepared:
    """Orthonormalized dense form of a ConicProgram.

    When the affine system itself is inconsistent the program is infeasible
    outright; the certificate is the component of the right-hand side
    orthogonal to the constraint range (a combination of constraints whose
    coefficient matrix vanishes while its rhs does not)."""

    def __init__(self, dims, offsets, a, b, cvec):
        self.dims = dims
        self.offsets = offsets
        self.cvec = cvec if np.any(cvec) else None
        self.inconsistent_y = None
        m = a.shape[0]
        if m:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            top = s[0] if s.size and s[0] > 0 else 1.0
            keep = s > 1e-12 * top
            rank = int(np.sum(keep))
            self.rows = vh[:rank]
            self.rhs = (u[:, :rank].T @ b) / s[:rank]
            x0 = self.rows.T @ self.rhs
            gap = a @ x0 - b
            if np.linalg.norm(gap) > 1e-7 * (1.0 + np.linalg.norm(b)):
                y = -gap  # A^T y ~ 0 and <b, y> = ||gap||^2 > 0
                self.inconsistent_y = (y, float(b @ y),
                                       float(np.linalg.norm(a.T @ y)))
        else:
            self.rows = np.zeros((0, offsets[-1]))
            self.rhs = np.zeros(0)
        self.x_particular = self.rows.T @ self.rhs

    @property
    def total_dim(self):
        return self.offsets[-1]

    def project_affine(self, x):
        if self.rows.shape[0] == 0:
            return x
        return x - self.rows.T @ (self.rows @ x - self.rhs)

    def affine_residual(self, x):
        if self.rows.shape[0] == 0:
            return 0.0
        return float(np.linalg.norm(self.rows @ x - self.rhs, ord=np.inf))

    def project_cone(self, x):
        out = np.empty_like(x)
        for v, n in enumerate(self.dims):
            h = rvec_to_herm(x[self.offsets[v] : self.offsets[v + 1]], n)
            w, u = np.linalg.eigh(h)
            wc = np.clip(w, 0.0, None)
            out[self.offsets[v] : self.offsets[v + 1]] = herm_to_rvec((u * wc) @ u.conj().T)
        return out

    def blocks_of(self, x):
        return [
            rvec_to_herm(x[self.offsets[v] : self.offsets[v + 1]], n)
            for v, n in enumerate(self.dims)
        ]


@dataclass
class SolveOutcome:
    """Result of a conic solve.

    ``status`` is feasible / infeasible / marginal.  Feasible outcomes carry
    a primal point (exactly-PSD blocks; affine residual reported).
    Infeasible outcomes carry a separating functional phi (one Hermitian
    matrix per block, unit HS norm): phi is negative semidefinite blockwise
    within ``witness_cone_residual`` (hence nonpositive on the cone) while
    its pairing with every point of the affine set equals ``witness_margin``
    which is strictly positive.
    """

    status: str
    primal_point: list | None = None
    dual_witness: list | None = None
    residual: float = np.inf
    witness_margin: float = 0.0
    witness_cone_residual: float = np.inf
    objective_value: float | None = None
    iterations: int = 0
    diagnostics: str = ""


# ---------------------------------------------------------------------------
# The splitting engine
# ---------------------------------------------------------------------------


def _admm(prog, tol, max_iter=MAX_ITER, alpha=1.6):
    """ADMM / Douglas-Rachford loop over a prepared :class:`ConicProgram`
    (its optional linear objective is ``prog.cvec``).  Returns (z, info).
    """
    n = prog.total_dim
    cvec = prog.cvec
    rho = 1.0
    z = np.zeros(n)
    z = prog.project_cone(prog.project_affine(z))
    u = np.zeros(n)
    r_primal = r_dual = np.inf
    prev_obj = None
    steady = 0
    stall = 0
    last_aff = np.inf
    gap_direction = None
    for it in range(1, max_iter + 1):
        t = z - u
        if cvec is not None:
            t = t - cvec / rho
        x = prog.project_affine(t)
        x_rel = alpha * x + (1.0 - alpha) * z
        z_new = prog.project_cone(x_rel + u)
        u = u + x_rel - z_new
        r_primal = float(np.linalg.norm(x - z_new) / np.sqrt(n))
        r_dual = float(rho * np.linalg.norm(z_new - z) / np.sqrt(n))
        z = z_new
        if it % 25 == 0:
            aff = prog.affine_residual(z)
            ok = aff <= tol and r_primal <= 10 * tol
            if cvec is not None:
                obj = float(cvec @ z)
                drift = abs(obj - prev_obj) if prev_obj is not None else np.inf
                prev_obj = obj
                steady = steady + 1 if (ok and drift <= tol * max(1.0, abs(obj))) else 0
                done = steady >= 4
            else:
                done = ok
            if done:
                return z, _info(it, aff, r_primal, r_dual, cvec, z, True, None)
            # divergence bookkeeping for pure feasibility runs: the affine
            # residual of the cone-projected iterate stalls strictly above
            # tol only when the sets do not meet (objective runs plateau
            # while chasing the objective, so they are exempt)
            if cvec is None and aff > 50 * tol:
                if abs(aff - last_aff) <= 1e-3 * max(aff, 1e-300):
                    stall += 1
                    gap_direction = x - z
                else:
                    stall = 0
                if stall >= 40:
                    return z, _info(it, aff, r_primal, r_dual, cvec, z, False, gap_direction)
            last_aff = aff
            # residual balancing
            if it % 500 == 0 and r_dual > 0 and r_primal > 0:
                if r_primal > 10 * r_dual and rho < 1e4:
                    rho *= 2.0
                    u /= 2.0
                elif r_dual > 10 * r_primal and rho > 1e-4:
                    rho /= 2.0
                    u *= 2.0
    aff = prog.affine_residual(z)
    return z, _info(max_iter, aff, r_primal, r_dual, cvec, z,
                    aff <= tol and cvec is None, gap_direction if aff > 50 * tol else None)


def _info(it, aff, rp, rd, cvec, z, converged, gap):
    return {
        "iterations": it,
        "affine_residual": aff,
        "primal_residual": rp,
        "dual_residual": rd,
        "objective": float(cvec @ z) if cvec is not None else 0.0,
        "converged": converged,
        "gap_direction": gap,
    }


def _verify_separating(prepared, direction, tol):
    """Polish a gap direction into a separating functional and verify it.

    Returns (blocks, margin, cone_residual) or None.  Alternates between the
    blockwise negative-semidefinite cone and the constraint row space; the
    final iterate lies exactly in the row space, so its pairing is constant
    on the affine set.  Acceptance is deliberately stringent: the positive
    spectral leak wmax must be tiny in absolute terms AND dominated by the
    margin with a large safety factor (a feasible point z could pair up to
    wmax * trace(z), so a loose wmax would let boundary-thin feasible
    programs masquerade as infeasible).
    """
    if direction is None:
        return None
    v = direction.copy()
    nv = np.linalg.norm(v)
    if nv == 0:
        return None
    v /= nv
    for _ in range(200):
        v = -prepared.project_cone(-v)
        if prepared.rows.shape[0]:
            v = prepared.rows.T @ (prepared.rows @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-13:
            return None
        v /= nv
    margin = float(v @ prepared.x_particular)
    if margin < 0:
        v = -v
        margin = -margin
    wmax = 0.0
    for h in prepared.blocks_of(v):
        w = np.linalg.eigvalsh(h)
        wmax = max(wmax, float(w[-1]))
    scale = max(1.0, float(np.linalg.norm(prepared.rhs, ord=np.inf)) if prepared.rhs.size else 1.0)
    if wmax <= 1e-9 * scale and margin > max(1e5 * wmax, 100 * tol * scale):
        return prepared.blocks_of(v), margin, wmax
    return None


def solve_feasibility(program: ConicProgram, tol: float = 1e-7,
                      max_iter: int = MAX_ITER) -> SolveOutcome:
    """Decide feasibility of ``{X >= 0 blockwise} ∩ {affine constraints}``.

    Feasible outcomes return an exactly-PSD primal point whose affine
    residual is below ``tol``; infeasible outcomes return a verified
    separating functional; anything razor-thin comes back Marginal for the
    caller to widen tolerances or treat as inconclusive.
    """
    if not (1e-10 <= tol <= 1e-3):
        raise BadProgram(f"tol {tol} outside [1e-10, 1e-3]")
    prepared = program.prepare()
    if prepared.inconsistent_y is not None:
        y, margin, cone_res = prepared.inconsistent_y
        return SolveOutcome(
            status=INFEASIBLE,
            dual_witness=prepared.blocks_of(np.zeros(prepared.total_dim)),
            residual=np.inf,
            witness_margin=margin,
            witness_cone_residual=cone_res,
            diagnostics="affine constraints are inconsistent",
        )
    z, info = _admm(prepared, tol, max_iter=max_iter)
    if info["converged"]:
        return SolveOutcome(
            status=FEASIBLE,
            primal_point=prepared.blocks_of(z),
            residual=info["affine_residual"],
            objective_value=info["objective"] if prepared.cvec is not None else None,
            iterations=info["iterations"],
        )
    cert = _verify_separating(prepared, info["gap_direction"], tol)
    if cert is not None:
        blocks, margin, cone_res = cert
        return SolveOutcome(
            status=INFEASIBLE,
            dual_witness=blocks,
            residual=info["affine_residual"],
            witness_margin=margin,
            witness_cone_residual=cone_res,
            iterations=info["iterations"],
        )
    return SolveOutcome(
        status=MARGINAL,
        residual=info["affine_residual"],
        objective_value=info["objective"] if prepared.cvec is not None else None,
        iterations=info["iterations"],
        diagnostics=(
            f"no certificate within {info['iterations']} iterations; "
            f"affine residual {info['affine_residual']:.2e}"
        ),
    )


# ---------------------------------------------------------------------------
# Operator-norm minimization over a matrix subspace
# ---------------------------------------------------------------------------


def minimize_opnorm(target, subspace_basis, tol: float = 1e-8,
                    real_coeffs: bool = False, max_iter: int = 30_000):
    """Minimize ``||target - x||`` over x in the span of ``subspace_basis``.

    Standard epigraph form: one Hermitian block [[t I, R], [R*, t I]] >= 0
    with R pinned to target - span, minimizing t.  Returns
    ``(value, coeffs)``; the value is recomputed directly from the returned
    coefficients, so it is always attained by them.  Raises
    InconclusiveAtTolerance when the solve is not Feasible.

    ``real_coeffs`` restricts to real combinations (minimization over the
    selfadjoint part of a space).
    """
    t0 = matcore.as_cmatrix(target)
    stack = np.asarray(subspace_basis, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != t0.shape:
        raise ShapeMismatch("basis elements must share the target's shape")
    p, q = t0.shape
    n = p + q
    d = stack.shape[0]
    if d == 0:
        return op_norm(t0), np.zeros(0, dtype=np.complex128)

    constraints = []
    for f in _offdiag_complement_rows(stack, p, q, real=real_coeffs):
        big = np.zeros((n, n), dtype=np.complex128)
        big[:p, p:] = 0.5 * f
        big[p:, :p] = 0.5 * f.conj().T
        constraints.append(([big], float(np.real(hs_inner(t0, f)))))
    # diagonal blocks must equal t * identity
    for i in range(p):
        for j in range(i + 1, p):
            for f in _herm_units(n, i, j):
                constraints.append(([f], 0.0))
    for i in range(q):
        for j in range(i + 1, q):
            for f in _herm_units(n, p + i, p + j):
                constraints.append(([f], 0.0))
    for i in range(1, p):
        f = np.zeros((n, n), dtype=np.complex128)
        f[0, 0], f[i, i] = 1.0, -1.0
        constraints.append(([f], 0.0))
    for i in range(q):
        f = np.zeros((n, n), dtype=np.complex128)
        f[0, 0], f[p + i, p + i] = 1.0, -1.0
        constraints.append(([f], 0.0))

    prog = ConicProgram([n], constraints, objective=[np.eye(n, dtype=np.complex128) / n])
    out = solve_feasibility(prog, tol=max(tol, 1e-9), max_iter=max_iter)
    if out.status != FEASIBLE:
        raise InconclusiveAtTolerance(f"norm minimization solve {out.status}: "
                                      f"{out.diagnostics}")
    r = out.primal_point[0][:p, p:]
    x_opt = (t0 - r).reshape(-1)
    flat = stack.reshape(d, -1).T
    if real_coeffs:
        a = np.concatenate([flat.real, flat.imag])
        y = np.concatenate([x_opt.real, x_opt.imag])
        coeffs = np.linalg.lstsq(a, y, rcond=None)[0].astype(np.complex128)
    else:
        coeffs = np.linalg.lstsq(flat, x_opt, rcond=None)[0]
    resid = t0 - np.einsum("t,tab->ab", coeffs, stack)
    return op_norm(resid), coeffs


def _offdiag_complement_rows(stack, p, q, real=False):
    """Real-ON basis of the orthogonal complement of the span inside the
    p x q matrices viewed as a real vector space."""
    d = stack.shape[0]
    flat = stack.reshape(d, p * q)
    if real:
        rows = np.concatenate([flat.real, flat.imag], axis=1)
    else:
        rows = np.concatenate(
            [np.concatenate([flat.real, flat.imag], axis=1),
             np.concatenate([-flat.imag, flat.real], axis=1)], axis=0)
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    comp = vh[rank:]
    return (comp[:, : p * q] + 1j * comp[:, p * q :]).reshape(-1, p, q)


def _herm_units(n, i, j):
    """Hermitian matrices reading off Re X_ij and -Im X_ij: paired with X,
    the second gives Re tr(f X) = -Im X_ij.  Every caller pins the pairing
    to 0, where the sign does not matter."""
    fr = np.zeros((n, n), dtype=np.complex128)
    fr[i, j] = fr[j, i] = 0.5
    fi = np.zeros((n, n), dtype=np.complex128)
    fi[i, j] = -0.5j
    fi[j, i] = 0.5j
    return [fr, fi]


# ---------------------------------------------------------------------------
# Linear maps between matrix subspaces, and the cc oracle
# ---------------------------------------------------------------------------


class LinearMapSpec:
    """A linear map from a matrix subspace W of M_p into M_q.

    Given by a linearly independent spanning family of W and the image of
    each member; orthonormalized internally (images transformed along), the
    Gram condition number of the input family is recorded.
    """

    def __init__(self, domain_basis, images):
        dom = np.asarray(domain_basis, dtype=np.complex128)
        img = np.asarray(images, dtype=np.complex128)
        if dom.ndim != 3 or img.ndim != 3 or dom.shape[0] != img.shape[0]:
            raise ShapeMismatch("domain basis and images must be matched stacks")
        if dom.shape[0] == 0:
            raise ShapeMismatch("empty map")
        if dom.shape[1] != dom.shape[2] or img.shape[1] != img.shape[2]:
            raise ShapeMismatch("domain and target must consist of square matrices")
        d = dom.shape[0]
        gram = np.einsum("iab,jab->ij", dom.conj(), dom)
        w = np.linalg.eigvalsh(gram)
        if w[0] <= 1e-12 * max(w[-1], 1.0):
            raise ShapeMismatch("domain family is numerically dependent")
        self.gram_condition = float(w[-1] / w[0])
        on, _ = orthonormalize(dom)
        if on.shape[0] != d:
            raise ShapeMismatch("domain family is numerically dependent")
        # images of the orthonormalized basis
        c, *_ = np.linalg.lstsq(dom.reshape(d, -1).T, on.reshape(d, -1).T, rcond=None)
        self.on_domain = on
        self.on_images = np.einsum("ti,tab->iab", c, img)
        self.p = dom.shape[1]
        self.q = img.shape[1]

    @property
    def dim(self):
        return self.on_domain.shape[0]

    def apply_coeffs(self, coeffs):
        return np.einsum("t,tab->ab", np.asarray(coeffs, dtype=np.complex128), self.on_images)

    def apply_level(self, coeffs):
        """Entrywise application at level k; coeffs has shape (k, k, dim)."""
        return amplify(coeffs, self.on_images)

    def element_level(self, coeffs):
        return amplify(coeffs, self.on_domain)

    def coeffs_of(self, m):
        return np.einsum("tab,ab->t", self.on_domain.conj(), np.asarray(m, dtype=np.complex128))


class ChoiAgreementProgram:
    """Choi variable constrained to agree with a given system map.

    Variable: Hermitian C of size (2p)(2q) -- the Choi matrix of a candidate
    extension M_{2p} -> M_{2q} -- plus one scalar s >= 0.  For each member
    g_a of a Hermitian HS-orthonormal family in M_{2p}:

        contract(C; g_a) := sum_{kl} (g_a)_{kl} C_{(k,l) block} = Y0_a + s Y1_a.

    Paired with the HS-orthonormal Hermitian basis E_e of M_{2q}, member a
    contributes the real rows ``<conj(g_a) (x) E_e, C> - s <E_e, Y1_a> =
    <E_e, Y0_a>``.  ``support`` confines C to the principal submatrix on
    those indices; every other entry is zero.
    """

    def __init__(self, gens, y0, y1, support):
        self.g = np.asarray(gens, dtype=np.complex128)
        self.y0 = np.asarray(y0, dtype=np.complex128)
        self.y1 = np.asarray(y1, dtype=np.complex128)
        self.m, self.tp, _ = self.g.shape
        self.tq = self.y0.shape[1]
        self.dim_c = self.tp * self.tq
        self.support = np.asarray(support, dtype=int)

    def rows(self):
        """``(f, a, b)``: Hermitian row matrices on the support, their
        scaling coefficients and right-hand sides, one per (a, e)."""
        tq = self.tq
        basis = np.stack([rvec_to_herm(e, tq) for e in np.eye(tq * tq)])
        k, al = np.divmod(self.support, tq)
        g_part = self.g.conj()[:, k[:, None], k[None, :]]
        e_part = basis[:, al[:, None], al[None, :]]
        n = self.support.size
        f = (g_part[:, None] * e_part[None]).reshape(-1, n, n)
        pair = "eab,xab->xe"
        b = np.einsum(pair, basis.conj(), self.y0).real.reshape(-1)
        a = -np.einsum(pair, basis.conj(), self.y1).real.reshape(-1)
        return f, a, b

    def embed(self, c):
        """Full Choi matrix from its block on the support."""
        full = np.zeros((self.dim_c, self.dim_c), dtype=np.complex128)
        full[np.ix_(self.support, self.support)] = c
        return full

    def contract(self, c):
        """K_a(C) for every family member a: stack of (2q, 2q) matrices."""
        c4 = c.reshape(self.tp, self.tq, self.tp, self.tq)
        return np.einsum("xkl,kalb->xab", self.g, c4)


# ---------------------------------------------------------------------------
# Interior-point solve of the scaling program
# ---------------------------------------------------------------------------


@dataclass
class ScaleSolve:
    """Last iterate of :func:`_hkm_max_scale`: the PSD block ``x``, the
    scaling ``s`` and the dual slack ``z`` (PSD, same size as ``x``), with
    the solver status, iteration count, and the relative duality gap and
    primal / dual infeasibilities at that point."""

    x: np.ndarray
    s: float
    z: np.ndarray
    status: str
    iterations: int
    gap: float
    primal_infeasibility: float
    dual_infeasibility: float


IPM_OPTIMAL = "optimal"
IPM_ITERATION_CAP = "iteration cap"
IPM_NUMERICAL_FAILURE = "numerical failure"
IPM_TOL = 1e-10
IPM_MAX_ITER = 60


def _hkm_max_scale(f, a, b) -> ScaleSolve:
    """Maximize s over ``{X >= 0, s >= 0 : Re<F_i, X> + a_i s = b_i}``.

    Dense infeasible-start primal-dual path following with the HKM search
    direction (Helmberg, Rendl, Vanderbei & Wolkowicz 1996) and Mehrotra
    predictor-corrector steps.  The rows are orthonormalized first.  The
    Schur matrix ``M_ij = Re tr(F_i X F_j Z^-1) + a_i a_j s / z_s`` falls
    back to least squares once it stops being numerically positive
    definite, which happens close to the optimum, and each primal step is
    projected back onto the linearized constraints so that a lossy solve
    cannot build up primal infeasibility.  Stops at relative gap and
    infeasibilities below ``IPM_TOL``, after ``IPM_MAX_ITER`` iterations,
    or when a factor fails; the last iterate is returned in every case.
    """
    n = f.shape[1]
    rows = np.stack([np.concatenate([herm_to_rvec(fi), [ai]]) for fi, ai in zip(f, a)])
    u, sv, vh = np.linalg.svd(rows, full_matrices=False)
    keep = sv > 1e-12 * sv[0]
    b = (u[:, keep].T @ b) / sv[keep]
    f = np.stack([rvec_to_herm(r[:-1], n) for r in vh[keep]])
    a = vh[keep, -1]
    m = f.shape[0]
    ft = f.transpose(0, 2, 1).reshape(m, -1)

    def op(mat):
        return (ft @ mat.reshape(-1)).real

    def adj(v):
        return np.einsum("i,iab->ab", v, f)

    def herm(mat):
        return 0.5 * (mat + mat.conj().T)

    eye = np.eye(n, dtype=np.complex128)
    x, xs, z, zs = eye.copy(), 1.0, eye.copy(), 1.0
    y = np.zeros(m)
    status = IPM_ITERATION_CAP
    it = 0
    while True:
        rp = b - op(x) - a * xs
        rd = -adj(y) - z
        rds = -1.0 - a @ y - zs
        pobj, dobj = -xs, float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = float(np.linalg.norm(rp) / (1.0 + np.linalg.norm(b)))
        dinf = float(np.hypot(np.linalg.norm(rd), rds) / 2.0)  # 1 + ||c|| = 2
        if max(gap, pinf, dinf) <= IPM_TOL:
            status = IPM_OPTIMAL
            break
        if it == IPM_MAX_ITER:
            break
        try:
            lx = np.linalg.inv(np.linalg.cholesky(x))
            lz = np.linalg.inv(np.linalg.cholesky(z))
        except np.linalg.LinAlgError:
            status = IPM_NUMERICAL_FAILURE
            break
        it += 1
        zinv = lz.conj().T @ lz
        mu = (float(np.trace(x @ z).real) + xs * zs) / (n + 1)
        schur = ((f @ x).reshape(m, -1) @ (f @ zinv).transpose(0, 2, 1).reshape(m, -1).T).real
        schur = 0.5 * (schur + schur.T) + np.outer(a, a) * (xs / zs)
        try:
            factor = scipy.linalg.cho_factor(schur)
        except np.linalg.LinAlgError:
            factor = None
        h_rd = herm(x @ rd @ zinv)

        def solve(r):
            if factor is None:
                return np.linalg.lstsq(schur, r, rcond=None)[0]
            return scipy.linalg.cho_solve(factor, r)

        def direction(g_mat, rc_s):
            dy = solve(rp - op(g_mat - h_rd) - a * (rc_s / zs - xs / zs * rds))
            dz = rd - adj(dy)
            dzs = rds - a @ dy
            dx, dxs = g_mat - herm(x @ dz @ zinv), (rc_s - xs * dzs) / zs
            # the rows are orthonormal, so this restores A dx = rp exactly
            # when the Schur solve has lost accuracy
            miss = rp - op(dx) - a * dxs
            return dx + adj(miss), dxs + a @ miss, dy, dz, dzs

        dx, dxs, dy, dz, dzs = direction(-x, -xs * zs)
        ap = min(1.0, _max_step(lx, dx), _max_step(xs, dxs))
        ad = min(1.0, _max_step(lz, dz), _max_step(zs, dzs))
        mu_aff = (float(np.trace((x + ap * dx) @ (z + ad * dz)).real)
                  + (xs + ap * dxs) * (zs + ad * dzs)) / (n + 1)
        sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)
        dx, dxs, dy, dz, dzs = direction(
            sigma * mu * zinv - x - herm(dx @ dz @ zinv),
            sigma * mu - xs * zs - dxs * dzs)
        ap = min(1.0, 0.98 * min(_max_step(lx, dx), _max_step(xs, dxs)))
        ad = min(1.0, 0.98 * min(_max_step(lz, dz), _max_step(zs, dzs)))
        x, xs = herm(x + ap * dx), xs + ap * dxs
        y, z, zs = y + ad * dy, herm(z + ad * dz), zs + ad * dzs
    return ScaleSolve(x=x, s=xs, z=z, status=status, iterations=it, gap=gap,
                      primal_infeasibility=pinf, dual_infeasibility=dinf)


def _max_step(v, dv):
    """Largest t keeping a cone point in the cone along ``dv``: for a
    scalar ``v`` the point is v itself; for a matrix, ``v`` is the inverse
    Cholesky factor L^-1 of the PSD point L L*."""
    if np.ndim(v) == 0:
        return -v / dv if dv < 0 else np.inf
    w = np.linalg.eigvalsh(v @ dv @ v.conj().T)[0]
    return -1.0 / w if w < 0 else np.inf


def _paulsen_family(map_spec: LinearMapSpec):
    """Hermitian ON family spanning the 2x2 system over the domain, with the
    constant (Y0) and scaling-linear (Y1) parts of the required images, and
    the support of every admissible Choi matrix.

    A CP map sending I_p (+) 0 to I_q (+) 0 has diagonal Choi blocks
    0 <= Phi(E_kk) <= I_q (+) 0 for k < p, so its Choi matrix vanishes on
    every index (k, b) with k < p <= b < 2q -- and symmetrically for the
    lower corner.  The remaining 2pq indices carry the whole program, which
    is strictly feasible there (the pinching onto the corners is an
    interior point at s = 0)."""
    p, q, d = map_spec.p, map_spec.q, map_spec.dim
    tq = 2 * q

    def emb(n, b11=None, b12=None):
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        if b11 is not None:
            out[:n, :n] = b11
        if b12 is not None:
            out[:n, n:] = b12
            out[n:, :n] = b12.conj().T
        return out

    def emb22(n, b22):
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        out[n:, n:] = b22
        return out

    gens = [emb(p, b11=np.eye(p) / np.sqrt(p)), emb22(p, np.eye(p) / np.sqrt(p))]
    y0 = [emb(q, b11=np.eye(q) / np.sqrt(p)), emb22(q, np.eye(q) / np.sqrt(p))]
    zq = np.zeros((tq, tq), dtype=np.complex128)
    y1 = [zq.copy(), zq.copy()]
    for t in range(d):
        w = map_spec.on_domain[t]
        y = map_spec.on_images[t]
        gens.append(emb(p, b12=w / np.sqrt(2)))
        y0.append(zq.copy())
        y1.append(emb(q, b12=y / np.sqrt(2)))
        gens.append(emb(p, b12=1j * w / np.sqrt(2)))
        y0.append(zq.copy())
        y1.append(emb(q, b12=1j * y / np.sqrt(2)))
    k, b = np.divmod(np.arange(2 * p * tq), tq)
    support = np.flatnonzero((k < p) == (b < q))
    return np.asarray(gens), np.asarray(y0), np.asarray(y1), support


@dataclass
class CcResult:
    verdict: str
    cb_estimate: float
    level: int | None = None
    violating_coeffs: np.ndarray | None = None
    violation_norm: float | None = None
    residual: float = 0.0
    iterations: int = 0
    diagnostics: str = ""


def cc_test(map_spec: LinearMapSpec, tol: float = 1e-7,
            rng_seed: int = 0) -> CcResult:
    """Decide whether the map is completely contractive.

    The largest admissible scaling s of the CP-extension program over the
    2x2 system is found by an interior-point solve (maps into the scalars,
    q = 1, included), and the returned point is
    checked afresh: with the Choi matrix shifted to be PSD (its computed
    smallest eigenvalue is lifted to a margin above eigvalsh's rounding
    error), and the agreement residuals R_a recomputed there, the cb-norm
    is at most
    ``(1 + 2 sum_a ||g_a||_1 ||R_a||) / s`` (see :func:`_certified_cb_bound`).
    CompletelyContractive is returned only when that bound is at most
    ``1 + tol`` and the sampler finds nothing above it; the bound is the
    reported ``cb_estimate``.  A Not verdict carries a level-q element y
    read from the dual point (:func:`_dual_witness`), with ||y|| = 1 and
    ||psi_q(y)|| > 1 + tol both recomputed directly.  Anything else is
    Marginal, with the solver's status in the diagnostics.
    """
    if all(np.abs(y).max(initial=0.0) < 1e-14 for y in map_spec.on_images):
        return CcResult(verdict=CC_YES, cb_estimate=0.0, diagnostics="zero map")

    gens, y0, y1, support = _paulsen_family(map_spec)
    prog = ChoiAgreementProgram(gens, y0, y1, support)
    sol = _hkm_max_scale(*prog.rows())
    bound, residual = _certified_cb_bound(prog, sol.x, sol.s)
    solver = (f"Choi solve {sol.status} after {sol.iterations} iterations "
              f"(gap {sol.gap:.1e}, infeasibility "
              f"{max(sol.primal_infeasibility, sol.dual_infeasibility):.1e})")

    if bound <= 1.0 + tol:
        confirm = sampled_cb_lower_bound(map_spec, max_level=min(map_spec.q, 3),
                                         samples=300, seed=rng_seed + 1)
        if confirm <= 1.0 + 10 * tol:
            return CcResult(verdict=CC_YES, cb_estimate=bound, residual=residual,
                            iterations=sol.iterations,
                            diagnostics=f"CP extension certified, cb <= {bound:.9f}")
        return CcResult(verdict=CC_MARGINAL, cb_estimate=bound, residual=residual,
                        iterations=sol.iterations,
                        diagnostics=f"certified bound {bound:.9f} contradicts the "
                                    f"sampled lower bound {confirm:.9f}")

    coeffs, value = _dual_witness(map_spec, sol.z)
    if value > 1.0 + max(tol, 1e-9):
        return CcResult(verdict=CC_NO, cb_estimate=max(bound, value), level=map_spec.q,
                        violating_coeffs=coeffs, violation_norm=value,
                        residual=residual, iterations=sol.iterations,
                        diagnostics=f"dual witness at level {map_spec.q}, "
                                    f"||psi(y)|| = {value:.9f}")
    return CcResult(verdict=CC_MARGINAL, cb_estimate=bound, residual=residual,
                    iterations=sol.iterations,
                    diagnostics=f"{solver}; certified cb bound {bound:.9f} exceeds "
                                f"1 + {tol:.0e}, dual witness reaches {value:.9f}")


def _dual_witness(map_spec: LinearMapSpec, z):
    """Level-q element of the domain read off the dual slack ``z`` of the
    scaling program; returns ``(coeffs, ||psi_q(y)||)`` with ||y|| = 1.

    On the support, whose first pq indices are the (k < p, b < q) corner,
    z = [[Z11, Z12], [Z12*, Z22]] >= 0, so T = Z11^-1/2 Z12 Z22^-1/2
    (pseudo-inverse roots) has ||T|| <= 1.  At the optimum conj(T), read as
    a level-q element of the domain, attains the cb-norm 1/s (Paulsen's
    off-diagonal argument run backwards; Smith's lemma makes level q
    enough).  Both norms are recomputed from the returned coefficients, so
    the value is attained whatever the quality of z.
    """
    p, q = map_spec.p, map_spec.q
    pq = p * q
    t = (_pinv_sqrt(z[:pq, :pq]) @ z[:pq, pq:] @ _pinv_sqrt(z[pq:, pq:])).reshape(p, q, p, q)
    coeffs = np.einsum("tkl,kblc->bct", map_spec.on_domain.conj(), t.conj())
    nrm = op_norm(map_spec.element_level(coeffs))
    if nrm < 1e-14:
        return coeffs, 0.0
    coeffs /= nrm
    return coeffs, op_norm(map_spec.apply_level(coeffs))


def _pinv_sqrt(h):
    """Pseudo-inverse square root of a PSD matrix."""
    w, u = np.linalg.eigh(h)
    keep = w > 1e-14 * max(float(w[-1]), 0.0)
    r = np.zeros_like(w)
    r[keep] = 1.0 / np.sqrt(w[keep])
    return (u * r) @ u.conj().T


def _certified_cb_bound(prog: ChoiAgreementProgram, x, s):
    """Upper bound on the cb-norm from a Choi point ``x`` (on the support)
    at scaling ``s``; returns ``(bound, max_a ||R_a||)``.

    ``x`` is shifted so that its computed smallest eigenvalue w becomes at
    least ``delta = n eps ||x||``, which bounds the rounding error of w;
    the shifted Choi matrix C is then PSD, i.e. the map Phi of C is CP.
    The shift enters the recomputed residuals and so the bound.  What
    remains unaccounted is the rounding in the residuals themselves, of
    order eps, far below any working tolerance.  On the 2x2 system
    Phi equals Theta_s + E, Theta_s the s-scaled system map and E the
    linear map g -> sum_a <g_a, g> R_a whose cb-norm is at most
    eps = sum_a ||g_a||_1 ||R_a||.  For y at level k with ||y|| <= 1 the
    element P = [[1, y], [y*, 1]] is positive of norm at most 2, so
    Theta_s(P) >= -2 eps, which reads s ||psi_k(y)|| <= 1 + 2 eps.
    """
    n = x.shape[0]
    w = np.linalg.eigvalsh(x)
    delta = n * np.finfo(float).eps * np.abs(w).max()
    if w[0] < delta:
        x = x + (delta - w[0]) * np.eye(n)
    r = prog.contract(prog.embed(x)) - prog.y0 - s * prog.y1
    r_norms = np.array([op_norm(ra) for ra in r])
    g_trace_norms = np.abs(np.linalg.eigvalsh(prog.g)).sum(axis=1)
    eps = float(g_trace_norms @ r_norms)
    bound = (1.0 + 2.0 * eps) / s if s > 0 else np.inf
    return bound, float(r_norms.max())


def _sample_coeffs(map_spec, k, rng, haar):
    """Random level-k coefficient tensor: complex Gaussian, or the HS
    projection of a Haar unitary of M_{kp} into M_k(W) (unitaries are the
    extreme points of the ball, so their projections probe the boundary
    much better than Gaussians)."""
    if not haar:
        return random_complex(rng, (k, k, map_spec.dim))
    g = random_complex(rng, (k * map_spec.p, k * map_spec.p))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    p = map_spec.p
    c = np.empty((k, k, map_spec.dim), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            c[i, j] = map_spec.coeffs_of(q[i * p : (i + 1) * p, j * p : (j + 1) * p])
    return c


def sampled_cb_lower_bound(map_spec: LinearMapSpec, max_level: int, samples: int,
                           seed: int, extra_coeff_samples=None) -> float:
    """Monte-Carlo lower bound for the cb-norm: max of ||psi_k(y)|| over
    sampled unit-ball elements at levels 1..max_level.  Deterministic given
    the seed; ``extra_coeff_samples`` may add (level, coeffs) pairs, e.g. a
    witness returned by :func:`cc_test`."""
    if max_level < 1:
        raise ShapeMismatch("max_level must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    per_level = max(1, samples // max_level)
    for k in range(1, max_level + 1):
        for trial in range(per_level):
            c = _sample_coeffs(map_spec, k, rng, haar=trial % 2 == 1)
            nrm = op_norm(map_spec.element_level(c))
            if nrm < 1e-14:
                continue
            best = max(best, op_norm(map_spec.apply_level(c / nrm)))
    if extra_coeff_samples:
        for k, c in extra_coeff_samples:
            c = np.asarray(c, dtype=np.complex128)
            nrm = op_norm(map_spec.element_level(c))
            if nrm >= 1e-14:
                best = max(best, op_norm(map_spec.apply_level(c / nrm)))
    return best
