"""Conic feasibility and optimization over products of PSD cones.

Every conic program here is solved by one engine, :func:`_hkm`: a dense
primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector steps) over a product of Hermitian PSD blocks with a
linear objective, a scalar variable being a 1 x 1 block.  Two program
shapes feed it:

* :class:`ConicProgram` holds scalar pairing constraints
  ``sum_v Re<F_jv, X_v> = rhs_j`` against Hermitian variable blocks, with an
  optional real-linear objective, as real rows in the coordinates of
  :func:`matcore.herm_to_rvec`.  Without an objective,
  :func:`solve_feasibility` poses a phase-I margin program (maximize
  lambda with X_v - lambda I >= 0): an iterate with lambda > 0 gives a
  strictly PSD point, and otherwise the dual multipliers give the
  separating functional, both checked afresh.

* :class:`ChoiAgreementProgram` is the structured program behind the
  complete-contractivity oracle: a Choi variable constrained to agree, as a
  linear map, with a given map on a Hermitian orthonormal family, plus one
  scalar scaling variable, whose largest admissible value is sought.

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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ncshilov import matcore
from ncshilov.errors import BadProgram, InconclusiveAtTolerance, NonFinite, ShapeMismatch
from ncshilov.matcore import (
    amplify,
    herm_to_rvec,
    op_norm,
    op_norms,
    orthonormalize,
    random_complex,
    rvec_to_herm,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
MARGINAL = "marginal"

CC_YES = "completely_contractive"
CC_NO = "not_completely_contractive"
CC_MARGINAL = "marginal"

# How a cc verdict was reached.
ROUTE_ZERO_MAP = "zero map"
ROUTE_CHOI_BOUND = "choi bound"
ROUTE_DUAL_WITNESS = "dual witness"

# An objective program counts as solved at this relative gap and
# infeasibility.
OBJECTIVE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


@dataclass
class ConicProgram:
    """Feasibility/optimization data over Hermitian PSD blocks, in the real
    coordinates of :func:`matcore.herm_to_rvec`.

    ``block_dims``: sizes of the PSD variable blocks; x is their
    vectorizations concatenated, so block v owns the next n_v^2 columns.
    ``rows`` (m, sum n_v^2) and ``rhs`` (m,): the constraints
    ``rows @ x = rhs``, i.e. ``sum_v Re<F_jv, X_v> = rhs_j`` for the
    Hermitian matrices F_jv the row vectorizes.
    ``objective``: optional coordinate vector c; the engine minimizes
    ``c @ x``.
    """

    block_dims: list[int]
    rows: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray | None = None

    def __post_init__(self):
        width = sum(n * n for n in self.block_dims)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != width:
            raise BadProgram(f"rows of shape {self.rows.shape} are not (m, {width})")
        if self.rhs.shape != self.rows.shape[:1]:
            raise BadProgram(f"{self.rhs.size} right-hand sides for "
                             f"{self.rows.shape[0]} rows")
        if self.objective is not None:
            self.objective = np.asarray(self.objective, dtype=float)
            if self.objective.shape != (width,):
                raise BadProgram(f"objective of shape {self.objective.shape} is not ({width},)")
        for data in (self.rows, self.rhs, self.objective):
            if data is not None and not np.isfinite(data).all():
                raise NonFinite("conic program data has NaN or Inf entries")

    def prepare(self):
        cvec = self.objective if self.objective is not None else np.zeros(self.rows.shape[1])
        return _DensePrepared(self.block_dims, self.rows, self.rhs, cvec)


class _DensePrepared:
    """Orthonormalized dense form of a ConicProgram: ``f`` holds the
    orthonormal constraint rows as one stack of Hermitian matrices per
    block, ``rhs`` their right-hand sides, ``c`` the objective blocks (None
    without an objective) and ``x_particular`` the least-norm affine point.

    When the affine system itself is inconsistent the program is infeasible
    outright; the certificate ``inconsistent_y`` = (y, <b, y>, ||A^T y||)
    holds the unit component y of the right-hand side orthogonal to the
    constraint range (a combination of constraints whose coefficient
    matrix vanishes while its rhs does not)."""

    def __init__(self, dims, a, b, cvec):
        self.dims = dims
        self.offsets = list(np.cumsum([0] + [n * n for n in dims]))
        self.inconsistent_y = None
        if a.shape[0]:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            top = s[0] if s.size and s[0] > 0 else 1.0
            keep = s > 1e-12 * top
            rank = int(np.sum(keep))
            self.rows = vh[:rank]
            self.rhs = (u[:, :rank].T @ b) / s[:rank]
            gap = a @ (self.rows.T @ self.rhs) - b
            if np.linalg.norm(gap) > 1e-7 * (1.0 + np.linalg.norm(b)):
                y = -gap / np.linalg.norm(gap)  # A^T y ~ 0 and <b, y> = ||gap|| > 0
                self.inconsistent_y = (y, float(b @ y),
                                       float(np.linalg.norm(a.T @ y)))
        else:
            self.rows = np.zeros((0, self.offsets[-1]))
            self.rhs = np.zeros(0)
        self.f = self.blocks_of(self.rows)
        self.c = self.blocks_of(cvec) if np.any(cvec) else None
        self.x_particular = self.blocks_of(self.rows.T @ self.rhs)

    def blocks_of(self, x):
        """Hermitian blocks of a vector, or stacks of them for a stack."""
        return [rvec_to_herm(x[..., self.offsets[v] : self.offsets[v + 1]], n)
                for v, n in enumerate(self.dims)]

    def polish(self, blocks):
        """Correct a point onto the affine set, then project it onto the
        cone; returns the exactly-PSD blocks and their affine residual."""
        x = np.concatenate([herm_to_rvec(h) for h in blocks])
        x = x - self.rows.T @ (self.rows @ x - self.rhs)
        out = []
        for h in self.blocks_of(x):
            w, u = np.linalg.eigh(h)
            out.append((u * np.clip(w, 0.0, None)) @ u.conj().T)
        x = np.concatenate([herm_to_rvec(h) for h in out])
        return out, float(np.abs(self.rows @ x - self.rhs).max(initial=0.0))


@dataclass
class SolveOutcome:
    """Result of a conic solve.

    ``status`` is feasible / infeasible / marginal.  Feasible outcomes carry
    a primal point (exactly-PSD blocks; affine residual reported).
    Infeasible outcomes carry a separating functional phi (one Hermitian
    matrix per block, unit HS norm): phi is negative semidefinite blockwise
    within ``witness_cone_residual`` (hence nonpositive on the cone) while
    its pairing with every point of the affine set equals ``witness_margin``
    which is strictly positive.  When the affine constraints are
    inconsistent by themselves, the certificate is ``affine_multiplier``
    instead and ``dual_witness`` is None: a unit vector y, one entry per
    constraint, whose combination ``sum_j y_j F_j`` of the coefficient
    matrices has HS norm ``witness_cone_residual`` (zero up to rounding)
    while ``sum_j y_j rhs_j`` = ``witness_margin`` is strictly positive.
    """

    status: str
    primal_point: list | None = None
    dual_witness: list | None = None
    affine_multiplier: np.ndarray | None = None
    residual: float = np.inf
    witness_margin: float = 0.0
    witness_cone_residual: float = np.inf
    objective_value: float | None = None
    iterations: int = 0
    diagnostics: str = ""


# ---------------------------------------------------------------------------
# The interior-point engine
# ---------------------------------------------------------------------------


@dataclass
class IpmSolve:
    """Last iterate of :func:`_hkm`: primal blocks ``x`` and dual slack
    blocks ``z``, with the solver status, iteration count, and the relative
    duality gap and primal / dual infeasibilities there.
    ``stopped`` is what the caller's stop test returned when it ended the
    solve."""

    x: list
    z: list
    status: str
    iterations: int
    gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    stopped: object = None


IPM_OPTIMAL = "optimal"
IPM_ITERATION_CAP = "iteration cap"
IPM_NUMERICAL_FAILURE = "numerical failure"
IPM_STOPPED = "stopped"
IPM_TOL = 1e-10
IPM_MAX_ITER = 60


@np.errstate(over="ignore", invalid="ignore")
def _hkm(f, b, c, stop=None) -> IpmSolve:
    """Minimize ``sum_v Re<C_v, X_v>`` over
    ``{X_v >= 0 : sum_v Re<F_iv, X_v> = b_i}``.

    ``f`` holds one stack of Hermitian rows per block (a scalar variable is
    a 1 x 1 block), orthonormal across the blocks, and ``c`` one Hermitian
    matrix per block.  Dense infeasible-start primal-dual path following
    with the HKM search direction (Helmberg, Rendl, Vanderbei & Wolkowicz
    1996) and Mehrotra predictor-corrector steps.  The Schur matrix
    ``M_ij = sum_v Re tr(F_iv X_v F_jv Z_v^-1)`` falls back to least
    squares once it stops being numerically positive definite, which
    happens close to the optimum, and each primal step is projected back
    onto the linearized constraints so that a lossy solve cannot build up
    primal infeasibility.  Stops at relative gap and infeasibilities below
    ``IPM_TOL``, after ``IPM_MAX_ITER`` iterations, when a factor fails or
    the iterates overflow, or when ``stop(x, A^T y, worst)``, called on every iterate with the largest
    of the three measures, returns something other than None; the last
    iterate is returned in every case.
    """
    m = b.size
    dims = [fv.shape[1] for fv in f]
    flat = [fv.reshape(m, n * n) for fv, n in zip(f, dims)]
    ft = [fv.transpose(0, 2, 1).reshape(m, n * n) for fv, n in zip(f, dims)]

    def op(xs):
        return sum((t @ xv.reshape(-1)).real for t, xv in zip(ft, xs))

    def adj(v):
        return [(v @ fl).reshape(n, n) for fl, n in zip(flat, dims)]

    def herm(mat):
        return 0.5 * (mat + mat.conj().T)

    nu = sum(dims)
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.sqrt(sum(np.linalg.norm(cv) ** 2 for cv in c))
    x = [np.eye(n, dtype=np.complex128) for n in dims]
    z = [np.eye(n, dtype=np.complex128) for n in dims]
    y = np.zeros(m)
    status, stopped = IPM_ITERATION_CAP, None
    it = 0
    while True:
        aty = adj(y)
        rp = b - op(x)
        rd = [cv - av - zv for cv, av, zv in zip(c, aty, z)]
        pobj = sum(np.vdot(cv, xv).real for cv, xv in zip(c, x))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pinf = float(np.linalg.norm(rp) / bnorm)
        dinf = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd)) / cnorm)
        worst = max(gap, pinf, dinf)
        if stop is not None:
            stopped = stop(x, aty, worst)
            if stopped is not None:
                status = IPM_STOPPED
                break
        if worst <= IPM_TOL:
            status = IPM_OPTIMAL
            break
        if not np.isfinite(worst):  # diverged, as on an infeasible objective program
            status = IPM_NUMERICAL_FAILURE
            break
        if it == IPM_MAX_ITER:
            break
        try:
            lx = [_inv_chol(xv) for xv in x]
            lz = [_inv_chol(zv) for zv in z]
            it += 1
            zinv = [lv.conj().T @ lv for lv in lz]
            mu = sum(np.vdot(zv, xv).real for xv, zv in zip(x, z)) / nu
            schur = sum(((fv @ xv).reshape(m, n * n)
                         @ (fv @ zi).transpose(0, 2, 1).reshape(m, n * n).T).real
                        for fv, xv, zi, n in zip(f, x, zinv, dims))
            schur = 0.5 * (schur + schur.T)
            try:
                factor = scipy.linalg.cho_factor(schur)
            except np.linalg.LinAlgError:
                factor = None
            h_rd = [herm(xv @ r @ zi) for xv, r, zi in zip(x, rd, zinv)]

            def solve(r):
                if factor is None:
                    return np.linalg.lstsq(schur, r, rcond=None)[0]
                return scipy.linalg.cho_solve(factor, r)

            def direction(g):
                dy = solve(rp - op([gv - hv for gv, hv in zip(g, h_rd)]))
                dz = [r - av for r, av in zip(rd, adj(dy))]
                dx = [gv - herm(xv @ dzv @ zi) for gv, xv, dzv, zi in zip(g, x, dz, zinv)]
                # the rows are orthonormal, so this restores A dx = rp exactly
                # when the Schur solve has lost accuracy
                miss = adj(rp - op(dx))
                return [dv + mv for dv, mv in zip(dx, miss)], dy, dz

            def step(factors, d):
                return min(_max_step(lv, dv) for lv, dv in zip(factors, d))

            dx, dy, dz = direction([-xv for xv in x])
            ap, ad = min(1.0, step(lx, dx)), min(1.0, step(lz, dz))
            mu_aff = sum(np.vdot(zv + ad * dzv, xv + ap * dxv).real
                         for xv, dxv, zv, dzv in zip(x, dx, z, dz)) / nu
            sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)
            dx, dy, dz = direction([sigma * mu * zi - xv - herm(dxv @ dzv @ zi)
                                    for xv, dxv, dzv, zi in zip(x, dx, dz, zinv)])
            ap, ad = min(1.0, 0.98 * step(lx, dx)), min(1.0, 0.98 * step(lz, dz))
            x = [herm(xv + ap * dxv) for xv, dxv in zip(x, dx)]
            y = y + ad * dy
            z = [herm(zv + ad * dzv) for zv, dzv in zip(z, dz)]
        except np.linalg.LinAlgError:
            status = IPM_NUMERICAL_FAILURE
            break
    return IpmSolve(x=x, z=z, status=status, iterations=it, gap=gap,
                    primal_infeasibility=pinf, dual_infeasibility=dinf, stopped=stopped)


def _inv_chol(h):
    """Inverse L^-1 of the Cholesky factor of a positive definite matrix;
    LinAlgError when it is not positive definite."""
    if h.shape[0] == 1:
        v = h[0, 0].real
        if not v > 0:
            raise np.linalg.LinAlgError("not positive definite")
        return np.array([[1.0 / np.sqrt(v)]], dtype=np.complex128)
    return np.linalg.inv(np.linalg.cholesky(h))


def _max_step(lv, dv):
    """Largest t keeping L L* + t dv PSD, given the inverse Cholesky factor
    ``lv`` = L^-1 of the current point."""
    if lv.shape[0] == 1:
        w = (lv[0, 0] * dv[0, 0] * lv[0, 0].conj()).real
    else:
        w = np.linalg.eigvalsh(lv @ dv @ lv.conj().T)[0]
    return -1.0 / w if w < 0 else np.inf


def _pairing(a, b):
    """sum_v Re<A_v, B_v> over blocks."""
    return float(sum(np.vdot(av, bv).real for av, bv in zip(a, b)))


# ---------------------------------------------------------------------------
# Feasibility and objective solves
# ---------------------------------------------------------------------------


def solve_feasibility(program: ConicProgram, tol: float = 1e-7) -> SolveOutcome:
    """Decide feasibility of ``{X >= 0 blockwise} ∩ {affine constraints}``,
    or minimize the program's objective over that set.

    Without an objective this is the phase-I margin solve of
    :func:`_phase_one`: Feasible outcomes return an exactly-PSD primal
    point whose affine residual is below ``tol``, Infeasible outcomes a
    separating functional checked afresh, and anything razor-thin comes
    back Marginal for the caller to treat as inconclusive.  With an
    objective the program is solved in standard form; the outcome is
    Feasible at the first iterate with relative gap and infeasibilities
    below ``OBJECTIVE_TOL`` that, corrected onto the affine set and
    projected onto the cone, meets the constraints within ``tol``.  When
    no iterate does, a phase-I solve may still prove the constraints
    infeasible, and the outcome is Marginal when it does not.
    """
    if not (1e-10 <= tol <= 1e-3):
        raise BadProgram(f"tol {tol} outside [1e-10, 1e-3]")
    prepared = program.prepare()
    if prepared.inconsistent_y is not None:
        y, margin, cone_res = prepared.inconsistent_y
        return SolveOutcome(
            status=INFEASIBLE,
            affine_multiplier=y,
            witness_margin=margin,
            witness_cone_residual=cone_res,
            diagnostics="affine constraints are inconsistent",
        )
    if prepared.c is None:
        return _phase_one(prepared, tol)

    def stop(x, _aty, worst):
        if worst <= OBJECTIVE_TOL:
            point, residual = prepared.polish(x)
            if residual <= tol:
                return SolveOutcome(status=FEASIBLE, primal_point=point, residual=residual,
                                    objective_value=_pairing(prepared.c, point))
        return None

    sol = _hkm(prepared.f, prepared.rhs, prepared.c, stop=stop)
    out = sol.stopped or _phase_one(prepared, tol)
    out.iterations += sol.iterations
    if out.status == FEASIBLE and sol.stopped is None:
        return SolveOutcome(
            status=MARGINAL, iterations=out.iterations,
            diagnostics=(f"objective solve {sol.status} after {sol.iterations} "
                         f"iterations (gap {sol.gap:.1e}, infeasibility "
                         f"{max(sol.primal_infeasibility, sol.dual_infeasibility):.1e})"))
    return out


def _phase_one(prepared: _DensePrepared, tol) -> SolveOutcome:
    """Maximize lambda subject to X_v - lambda I >= 0 and the constraints.

    With X_v = Y_v + lambda I and lambda = s - c0, where c0 exceeds the
    norm of the least-norm affine point (so that the program is strictly
    feasible), this is: maximize s over Y >= 0, s >= 0 with
    A(Y) + s A(I) = b + c0 A(I).  The solve stops at the first iterate with
    lambda > 0 whose point X, corrected onto the affine set and projected
    onto the cone, meets the constraints within ``tol``: Feasible, even
    when lambda is unbounded.  Otherwise, at each iterate, phi = A^T y on
    the Y blocks lies in the row space, so it pairs with every affine point
    as with the least-norm one; Infeasible as soon as it passes
    :func:`_separating`, Marginal when no iterate gives either answer.
    """
    dims = prepared.dims
    xp = prepared.x_particular
    c0 = 1.0 + max(np.linalg.norm(h) for h in xp)
    t = sum(np.trace(fv, axis1=1, axis2=2).real for fv in prepared.f)  # A(I)
    # the rows [F, t] are orthonormal again after (I + t t^T)^-1/2,
    # which is I - kappa t t^T
    tt = float(t @ t)
    kappa = (1.0 - 1.0 / np.sqrt(1.0 + tt)) / tt if tt > 0 else 0.0
    f = [fv - kappa * np.multiply.outer(t, np.tensordot(t, fv, axes=1)) for fv in prepared.f]
    f.append(((1.0 - kappa * tt) * t).astype(np.complex128)[:, None, None])
    rhs = prepared.rhs + c0 * t
    rhs = rhs - kappa * t * (t @ rhs)
    c = [np.zeros((n, n), dtype=np.complex128) for n in dims] + [-np.ones((1, 1))]
    scale = max(1.0, float(np.abs(prepared.rhs).max(initial=0.0)))

    def stop(x, aty, _worst):
        lam = x[-1][0, 0].real - c0
        if lam > 0:
            point, residual = prepared.polish(
                [xv + lam * np.eye(n) for xv, n in zip(x[:-1], dims)])
            if residual <= tol:
                return SolveOutcome(status=FEASIBLE, primal_point=point, residual=residual)
        return _separating(aty[:-1], xp, tol, scale)

    sol = _hkm(f, rhs, c, stop=stop)
    if sol.stopped is not None:
        sol.stopped.iterations = sol.iterations
        return sol.stopped
    return SolveOutcome(
        status=MARGINAL, iterations=sol.iterations,
        diagnostics=(f"no certificate: phase-I solve {sol.status} after "
                     f"{sol.iterations} iterations at margin "
                     f"{sol.x[-1][0, 0].real - c0:.2e}"),
    )


def _separating(phi, x_particular, tol, scale):
    """Infeasible outcome from a functional ``phi`` in the row space, or
    None.

    At unit norm, phi's pairing with the least-norm affine point is the
    margin.  Acceptance is deliberately stringent: the positive spectral
    leak wmax must be tiny in absolute terms AND dominated by the margin
    with a large safety factor (a feasible point X could pair up to
    wmax * trace(X), so a loose wmax would let boundary-thin feasible
    programs masquerade as infeasible).
    """
    nrm = np.sqrt(sum(np.linalg.norm(p) ** 2 for p in phi))
    if nrm == 0:
        return None
    margin = _pairing(phi, x_particular) / nrm
    if margin <= 100 * tol * scale:
        return None
    phi = [p / nrm for p in phi]
    wmax = max(0.0, *(float(np.linalg.eigvalsh(p)[-1]) for p in phi))
    if wmax <= 1e-9 * scale and margin > 1e5 * wmax:
        return SolveOutcome(status=INFEASIBLE, dual_witness=phi, witness_margin=margin,
                            witness_cone_residual=wmax)
    return None


# ---------------------------------------------------------------------------
# Operator-norm minimization over a matrix subspace
# ---------------------------------------------------------------------------


def minimize_opnorm(target, subspace_basis, tol: float = 1e-8,
                    real_coeffs: bool = False):
    """Minimize ``||target - x||`` over x in the span of ``subspace_basis``.

    Standard epigraph form: one Hermitian block [[t I, R], [R*, t I]] >= 0
    with R pinned to target - span, minimizing t, solved as an objective
    program of :func:`solve_feasibility`.  Returns ``(value, coeffs)``; the
    value is recomputed directly from the returned coefficients, so it is
    always attained by them.  Raises InconclusiveAtTolerance when the solve
    is not Feasible.

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

    # R in target - span: its components orthogonal to the span are the
    # target's, read off the upper corner of X
    comp = _offdiag_complement_rows(stack, p, q, real=real_coeffs)
    corner = np.zeros((comp.shape[0], n, n), dtype=np.complex128)
    corner[:, :p, p:] = 0.5 * comp
    rows = [herm_to_rvec(corner)]
    rhs = [np.sum(comp.conj() * t0, axis=(1, 2)).real]
    # diagonal blocks must equal t * identity: their traceless parts vanish
    # and their normalized traces agree
    for k, lo in ((p, 0), (q, p)):
        pins = matcore.null_space(herm_to_rvec(np.eye(k)[None]))
        block = np.zeros((pins.shape[0], n * n))
        block[:, matcore.herm_block_coords(n, lo, k)] = pins
        rows.append(block)
        rhs.append(np.zeros(pins.shape[0]))
    trace = np.zeros((1, n * n))
    trace[0, :p], trace[0, p:n] = 1.0 / p, -1.0 / q
    prog = ConicProgram([n], np.concatenate(rows + [trace]), np.concatenate(rhs + [[0.0]]),
                        objective=herm_to_rvec(np.eye(n) / n))
    out = solve_feasibility(prog, tol=max(tol, 1e-9))
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
    comp = matcore.null_space(rows)
    return (comp[:, : p * q] + 1j * comp[:, p * q :]).reshape(-1, p, q)


# ---------------------------------------------------------------------------
# Linear maps between matrix subspaces, and the cc oracle
# ---------------------------------------------------------------------------


class LinearMapSpec:
    """A linear map from a matrix subspace W of M_p into M_q.

    Given by a linearly independent spanning family of W and the image of
    each member; orthonormalized internally (images transformed along).
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
        on = orthonormalize(dom)
        if on.shape[0] != d:
            raise ShapeMismatch("domain family is numerically dependent")
        # column i of c: coefficients of on[i] over the given family
        c, *_ = np.linalg.lstsq(dom.reshape(d, -1).T, on.reshape(d, -1).T, rcond=None)
        self.family_coeffs = c
        self.on_domain = on
        self.on_images = np.einsum("ti,tab->iab", c, img)
        self.p = dom.shape[1]
        self.q = img.shape[1]

    @property
    def dim(self):
        return self.on_domain.shape[0]

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
        basis = rvec_to_herm(np.eye(tq * tq), tq)
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
class ScaleSolve(IpmSolve):
    """:class:`IpmSolve` of the scaling program: ``x`` and ``z`` are its
    Choi blocks and ``s`` the scaling."""

    s: float = 0.0


def _hkm_max_scale(f, a, b) -> ScaleSolve:
    """Maximize s over ``{X >= 0, s >= 0 : Re<F_i, X> + a_i s = b_i}``: the
    two-block case [X, s] of :func:`_hkm`, with objective -s, after the
    rows are orthonormalized."""
    n = f.shape[1]
    rows = np.concatenate([herm_to_rvec(f), np.asarray(a)[:, None]], axis=1)
    cvec = np.zeros(n * n + 1)
    cvec[-1] = -1.0
    prepared = ConicProgram([n, 1], rows, b, objective=cvec).prepare()
    sol = _hkm(prepared.f, prepared.rhs, prepared.c)
    return ScaleSolve(**{**vars(sol), "x": sol.x[0], "z": sol.z[0],
                         "s": float(sol.x[1][0, 0].real)})


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
    """A cc verdict with its certificate data; ``route`` says what decided
    it: the zero map, the certified Choi bound (Yes and Marginal) or the
    dual witness (No)."""

    verdict: str
    cb_estimate: float
    level: int | None = None
    violating_coeffs: np.ndarray | None = None
    violation_norm: float | None = None
    residual: float = 0.0
    iterations: int = 0
    diagnostics: str = ""
    route: str = ROUTE_CHOI_BOUND


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
    ``1 + tol`` and the lower bound of :func:`sampled_cb_lower_bound` (300
    samples over levels 1..min(q, 3)) is at most ``1 + 10 tol``; a sampled
    bound above that contradicts the certificate and gives Marginal.  The
    certified bound is the reported ``cb_estimate``.  A Not verdict
    carries a level-q element y read from the dual point
    (:func:`_dual_witness`), with ||y|| = 1 and ||psi_q(y)|| > 1 + tol
    both recomputed directly.  Anything else is Marginal, with the
    solver's status in the diagnostics.
    """
    if all(np.abs(y).max(initial=0.0) < 1e-14 for y in map_spec.on_images):
        return CcResult(verdict=CC_YES, cb_estimate=0.0, diagnostics="zero map",
                        route=ROUTE_ZERO_MAP)

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
                                    f"||psi(y)|| = {value:.9f}",
                        route=ROUTE_DUAL_WITNESS)
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
    r_norms = op_norms(r)
    g_trace_norms = np.abs(np.linalg.eigvalsh(prog.g)).sum(axis=1)
    eps = float(g_trace_norms @ r_norms)
    bound = (1.0 + 2.0 * eps) / s if s > 0 else np.inf
    return bound, float(r_norms.max())


def sampled_cb_lower_bound(map_spec: LinearMapSpec, max_level: int, samples: int,
                           seed: int, extra_coeff_samples=None) -> float:
    """Monte-Carlo lower bound for the cb-norm: max of ||psi_k(y)|| over
    sampled unit-ball elements at levels 1..max_level.  Deterministic given
    the seed; ``extra_coeff_samples`` may add (level, coeffs) pairs, e.g. a
    witness returned by :func:`cc_test`.

    Each level makes ``max(1, samples // max_level)`` trials that alternate
    between a complex Gaussian coefficient tensor, drawn as
    ``random_complex(rng, (k, k, dim))``, and the HS projection into M_k(W)
    of a Haar unitary of M_{kp}, made from ``random_complex(rng, (kp, kp))``
    (unitaries are the extreme points of the ball, so their projections
    probe the boundary much better than Gaussians).  The draws are made
    trial by trial in that order, and only then is the level evaluated as
    one stack (:func:`matcore.op_norms`), so the bound for a given seed is
    bit for bit the one a per-trial loop returns.
    """
    if max_level < 1:
        raise ShapeMismatch("max_level must be >= 1")
    rng = np.random.default_rng(seed)
    p, dim = map_spec.p, map_spec.dim
    per_level = max(1, samples // max_level)
    best = 0.0
    for k in range(1, max_level + 1):
        draws = [random_complex(rng, (k * p, k * p) if trial % 2 else (k, k, dim))
                 for trial in range(per_level)]
        gauss = np.array(draws[0::2])
        haar = np.array(draws[1::2], dtype=np.complex128).reshape(-1, k * p, k * p)
        best = max(best, _max_norm_ratio(map_spec, gauss),
                   _max_norm_ratio(map_spec, _haar_coeffs(map_spec, k, haar)))
    for k, c in extra_coeff_samples or ():
        best = max(best, _max_norm_ratio(map_spec, np.asarray(c, dtype=np.complex128)[None]))
    return best


def _haar_coeffs(map_spec: LinearMapSpec, k, g):
    """Level-k coefficient tensors (S, k, k, dim) of the HS projections into
    M_k(W) of the Haar unitaries that the QR factorizations of a stack of
    complex Gaussian (kp, kp) matrices give."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    p = map_spec.p
    return np.einsum("tab,siajb->sijt", map_spec.on_domain.conj(), q.reshape(-1, k, p, k, p))


def _max_norm_ratio(map_spec: LinearMapSpec, coeffs) -> float:
    """Largest ||psi_k(y)|| over the elements y of a stack of level-k
    coefficient tensors (S, k, k, dim), each scaled to ||y|| = 1 first;
    elements with ||y|| < 1e-14 are skipped."""
    nrm = op_norms(map_spec.element_level(coeffs))
    keep = nrm >= 1e-14
    unit = coeffs[keep] / nrm[keep, None, None, None]
    return float(op_norms(map_spec.apply_level(unit)).max(initial=0.0))
