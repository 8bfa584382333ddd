"""Conic feasibility and optimization over products of PSD cones.

Every conic program here is solved by one engine, :func:`_hkm`: a dense
primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector steps) over a product of Hermitian PSD blocks with a
linear objective, a scalar variable being a 1 x 1 block.  Two program
shapes feed it, each a set of scalar pairing constraints
``sum_v Re<F_jv, X_v> = rhs_j`` against Hermitian variable blocks with
orthonormal rows, and each shape prepares its own rows:

* The dual-form margin program of :class:`MarginRows`: maximize
  lambda subject to the linear matrix inequality
  ``F0 + sum_i u_i F_i - lambda I >= 0`` over free real coordinates u.
  It is posed as the engine's own dual, so its Schur matrix has one row
  per coordinate u_i plus a trace row, however large the blocks are; the
  caller's stop test sees (u, lambda) and the trace-one primal point X,
  which is where a separating functional comes from.  The rows depend on
  the F_i alone and are orthonormalized once per :class:`MarginRows`,
  whose :meth:`MarginRows.solve` takes F0: the Karn program keeps one
  per envelope and level and solves it for every query, while
  :func:`solve_dual_margin` prepares and solves a program once.  Every
  solve outside the cc oracle is one of these: operator-norm distance to
  a subspace (:func:`minimize_opnorm`) and, in other modules, the
  spanning-cone, Karn and domination programs.  Feasibility over an
  affine set (:func:`solve_feasibility`, on a :class:`ConicProgram`) has
  no caller in the program; it is kept as a public entry point, which
  acceptance criterion 10 and the benchmark's traced layers use.

* The scaling program behind the complete-contractivity oracle
  (:func:`_hkm_max_scale`): maximize s >= 0 over Choi matrices C =
  [[C11, C12], [C12*, C22]] >= 0 on the 2pq support, with Tr_1 C11 =
  Tr_1 C22 = I_q and K_t(C12) = s psi(w_t) for every orthonormal domain
  element w_t (:func:`_choi_rows`), as in Watrous's SDP for the
  completely bounded norm.  Its rows are orthonormalized in closed form
  (:func:`_scale_rows`), without a :class:`ConicProgram`.

The complete-contractivity test reduces, as usual, to complete positivity
of the associated unital map on the 2x2 operator system over the map's
domain: ``cb-norm(psi) <= 1/s`` iff the s-scaled system map admits a
completely positive extension to the full matrix algebra, iff a Choi
matrix of size (2p)(2q), which vanishes off its 2pq support, is PSD
under the block constraints above.  We maximize the admissible scaling
s, so 1/s* is the cb-norm.  The oracle needs a verdict, not the optimum.
Two certificates written in closed form come first and settle most maps
without a solve: a level-q element built from the images
(:func:`_gradient_witness`, No) and a PSD Choi point built from one SVD
(:func:`_closed_form_choi_point`, Yes); each is checked as below.
Otherwise the solve stops at the first iterate that proves either
answer.  Neither rests on the solver's own status.
Yes: the iterate's Choi matrix is shifted to be PSD, with a margin that
covers the rounding error of its computed eigenvalues, and the block
residuals are recomputed; from these and s follows an upper bound on the
cb-norm (:func:`_certified_cb_bound`), which proves the verdict when it
is at most 1 + tol.  No: the iterate's dual slack yields a level-q
element y of the domain (:func:`_dual_witness`), and ||psi_q(y)|| /
||y||, recomputed directly from y, proves the verdict when it exceeds
1 + tol.  The solve runs on toward its optimum only while neither holds.
:func:`sampled_cb_lower_bound` decides nothing here; it is an
independent Monte-Carlo reference that Yes verdicts can be checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ncshilov import matcore
from ncshilov.errors import (BadProgram, DependentFamily, InconclusiveAtTolerance, NonFinite,
                             ShapeMismatch)
from ncshilov.matcore import (
    amplify,
    herm_to_rvec,
    op_norm,
    op_norms,
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
ROUTE_GRADIENT_WITNESS = "gradient witness"


# ---------------------------------------------------------------------------
# Feasibility programs and their rows
# ---------------------------------------------------------------------------


@dataclass
class ConicProgram:
    """Feasibility data over Hermitian PSD blocks, in the real coordinates
    of :func:`matcore.herm_to_rvec`: the validated input of
    :func:`solve_feasibility`.

    ``block_dims``: sizes of the PSD variable blocks; x is their
    vectorizations concatenated, so block v owns the next n_v^2 columns.
    ``rows`` (m, sum n_v^2) and ``rhs`` (m,): the constraints
    ``rows @ x = rhs``, i.e. ``sum_v Re<F_jv, X_v> = rhs_j`` for the
    Hermitian matrices F_jv the row vectorizes.
    """

    block_dims: list[int]
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        width = sum(n * n for n in self.block_dims)
        self.rows = np.asarray(self.rows, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != width:
            raise BadProgram(f"rows of shape {self.rows.shape} are not (m, {width})")
        if self.rhs.shape != self.rows.shape[:1]:
            raise BadProgram(f"{self.rhs.size} right-hand sides for "
                             f"{self.rows.shape[0]} rows")
        if not (np.isfinite(self.rows).all() and np.isfinite(self.rhs).all()):
            raise NonFinite("conic program data has NaN or Inf entries")


def _blocks_of(x, dims):
    """Hermitian blocks of sizes ``dims`` of a vector whose block v owns
    the next n_v^2 coordinates, or stacks of them for a stack."""
    ends = np.cumsum([n * n for n in dims])
    return [rvec_to_herm(x[..., end - n * n : end], n) for end, n in zip(ends, dims)]


def _orthonormal_rows(a, b):
    """``(rows, row_lift, rhs, ray)`` for the affine set ``a x = b`` from
    its thin SVD A = U_r S_r V_r^T, cut at 1e-12 s_max: the orthonormal
    rows V_r^T with right-hand sides S_r^-1 U_r^T b, and U_r S_r^-1, which
    takes multipliers y of those rows to the multipliers of the given rows
    with the same combination A^T y.  ``ray`` is None for a consistent
    system, else the unit component y of b orthogonal to the range of A: a
    combination of the constraints with A^T y ~ 0 and <b, y> > 0."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = matcore.numerical_rank(s, 1e-12)
    rows = vh[:rank]
    rhs = (u[:, :rank].T @ b) / s[:rank]
    gap = a @ (rows.T @ rhs) - b
    miss = np.linalg.norm(gap)
    ray = -gap / miss if miss > 1e-7 * (1.0 + np.linalg.norm(b)) else None
    return rows, u[:, :rank] / s[:rank], rhs, ray


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
IPM_UNBOUNDED = "dual unbounded"
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
    the Schur matrix overflows or a measure is not finite (the stop test
    never sees such an iterate), or when ``stop(x, y, z, worst)``, called
    on every other iterate with the primal blocks, the multipliers, the
    dual slack blocks and the largest of the three measures, returns
    something other than None; the last iterate is returned in every case.
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
        # each measure on its own: max() keeps a NaN only in first place
        if not np.isfinite((gap, pinf, dinf)).all():
            status = IPM_NUMERICAL_FAILURE
            break
        worst = max(gap, pinf, dinf)
        if stop is not None:
            stopped = stop(x, y, z, worst)
            if stopped is not None:
                status = IPM_STOPPED
                break
        if worst <= IPM_TOL:
            status = IPM_OPTIMAL
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
            if not np.isfinite(schur).all():  # np.linalg.cholesky would pass it through
                raise np.linalg.LinAlgError("non-finite Schur matrix")
            try:
                factor = np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                factor = None
            h_rd = [herm(xv @ r @ zi) for xv, r, zi in zip(x, rd, zinv)]

            def solve(r):
                if factor is None:
                    return np.linalg.lstsq(schur, r, rcond=None)[0]
                return np.linalg.solve(factor.T, np.linalg.solve(factor, r))

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
            # equal primal and dual step lengths (as in SeDuMi, Sturm 1999):
            # unequal ones lose centrality where the optimum is degenerate
            alpha = min(1.0, 0.98 * step(lx, dx), 0.98 * step(lz, dz))
            x = [herm(xv + alpha * dxv) for xv, dxv in zip(x, dx)]
            y = y + alpha * dy
            z = [herm(zv + alpha * dzv) for zv, dzv in zip(z, dz)]
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
# Feasibility and margin solves
# ---------------------------------------------------------------------------


def check_tol(tol):
    """Refuse a tolerance the engine cannot certify at (BadProgram)."""
    if not (1e-10 <= tol <= 1e-3):
        raise BadProgram(f"tol {tol} outside [1e-10, 1e-3]")


def solve_feasibility(program: ConicProgram, tol: float = 1e-7) -> SolveOutcome:
    """Decide feasibility of ``{X >= 0 blockwise} ∩ {affine constraints}``.

    One :func:`solve_dual_margin` solve over the affine set: X = X0 +
    sum_i u_i N_i with X0 the least-norm affine point and N_i an ON basis
    of the kernel of the constraints, maximizing lambda with X - lambda I
    >= 0.  Feasible outcomes come from the dual side: an iterate with
    lambda > 0 whose point X, corrected onto the affine set and projected
    onto the cone, meets the constraints within ``tol``.  Infeasible
    outcomes come from the primal side: the trace-one primal point is
    orthogonal to every N_i, so minus its projection onto the row space is
    a functional phi that pairs with every affine point as with X0, and it
    must pass :func:`_separating`.  Anything razor-thin comes back Marginal
    for the caller to treat as inconclusive."""
    check_tol(tol)
    dims = program.block_dims
    rows, _, rhs, ray = _orthonormal_rows(program.rows, program.rhs)
    if ray is not None:
        return SolveOutcome(
            status=INFEASIBLE,
            affine_multiplier=ray,
            witness_margin=float(program.rhs @ ray),
            witness_cone_residual=float(np.linalg.norm(program.rows.T @ ray)),
            diagnostics="affine constraints are inconsistent",
        )
    x_particular = _blocks_of(rows.T @ rhs, dims)
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    free = _blocks_of(matcore.null_space(rows), dims)

    def polish(blocks):
        # correct a point onto the affine set, then project it onto the cone
        x = np.concatenate([herm_to_rvec(h) for h in blocks])
        x = x - rows.T @ (rows @ x - rhs)
        out = []
        for h in _blocks_of(x, dims):
            w, u = np.linalg.eigh(h)
            out.append((u * np.clip(w, 0.0, None)) @ u.conj().T)
        x = np.concatenate([herm_to_rvec(h) for h in out])
        return out, float(np.abs(rows @ x - rhs).max(initial=0.0))

    def stop(u, lam, x):
        if lam > 0:
            point, residual = polish(
                [x0 + np.tensordot(u, fv, axes=1) for x0, fv in zip(x_particular, free)])
            if residual <= tol:
                return SolveOutcome(status=FEASIBLE, primal_point=point, residual=residual)
        if x is None:
            return None
        xv = np.concatenate([herm_to_rvec(h) for h in x])
        phi = _blocks_of(-rows.T @ (rows @ xv), dims)
        return _separating(phi, x_particular, tol, scale)

    sol = solve_dual_margin(x_particular, free, stop)
    if sol.stopped is not None:
        sol.stopped.iterations = sol.iterations
        return sol.stopped
    return SolveOutcome(
        status=MARGINAL, iterations=sol.iterations,
        diagnostics=(f"no certificate: margin solve {sol.status} after "
                     f"{sol.iterations} iterations (gap {sol.gap:.1e})"),
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


class MarginRows:
    """The rows of the dual-form margin program over a fixed family F_i,
    written and orthonormalized once; :meth:`solve` runs the program for
    a given F0.

    The program maximizes lambda subject to ``F0_v + sum_i u_i F_iv -
    lambda I >= 0`` on every block v, over real u.  ``fs`` holds one stack
    of m Hermitian matrices per block.  This is the dual of the trace-one
    primal ``minimize sum_v <F0_v, X_v>`` over X >= 0 with
    ``sum_v <F_iv, X_v> = 0`` for every i and ``tr X = 1``: m + 1 rows
    that depend on the F_i alone, while F0 enters only as the engine's
    objective.  A caller that poses many programs on one family (the Karn
    program of :mod:`ncshilov.unitize`, one per envelope and level) keeps
    the rows and pays only for each :func:`_hkm` solve.  ``rows`` holds
    the orthonormal rows as one stack per block (:func:`_orthonormal_rows`
    of [F_i; I]); a family with NaN or Inf entries is refused (NonFinite)."""

    def __init__(self, fs):
        self.dims = [fv.shape[1] for fv in fs]
        a = np.concatenate([np.concatenate([herm_to_rvec(fv) for fv in fs], axis=1),
                            np.concatenate([herm_to_rvec(np.eye(n)) for n in self.dims])[None]])
        if not np.isfinite(a).all():
            raise NonFinite("conic program data has NaN or Inf entries")
        b = np.zeros(a.shape[0])
        b[-1] = 1.0
        rows, self.row_lift, self.rhs, self.ray = _orthonormal_rows(a, b)
        self.rows = _blocks_of(rows, self.dims)

    def solve(self, f0, stop) -> IpmSolve:
        """Solve the program for the Hermitian blocks ``f0``.
        ``stop(u, lambda, X)`` is called on every iterate, with (u, lambda)
        read off the dual slack C - A^T y, which is exactly F0 + sum u_i F_i
        - lambda I (the engine's y is (-u, lambda)), and X the primal
        blocks; the solve ends when it returns something other than None.
        A primal point with ``sum_v <F0_v, X_v> < 0`` bounds lambda below
        zero, once its constraint residuals are accounted for.

        When I lies in the span of the F_i the primal is infeasible and
        lambda unbounded: stop is then called once, with X None, on the
        point of that ray where lambda = 1, and the returned solve has no
        iterates."""
        cvec = np.concatenate([herm_to_rvec(h) for h in f0])
        if not np.isfinite(cvec).all():
            raise NonFinite("conic program data has NaN or Inf entries")
        if self.ray is not None:
            y = self.ray  # A^T y = 0 with y_lambda = <b, y> > 0
            t = 1.0 + max(op_norm(h) for h in f0)
            stopped = stop(-t * y[:-1] / y[-1], 1.0, None)
            return IpmSolve(x=[], z=[],
                            status=IPM_STOPPED if stopped is not None else IPM_UNBOUNDED,
                            iterations=0, gap=0.0, primal_infeasibility=np.inf,
                            dual_infeasibility=0.0, stopped=stopped)

        def dual_stop(x, y, _z, _worst):
            y = self.row_lift @ y
            return stop(-y[:-1], float(y[-1]), x)

        return _hkm(self.rows, self.rhs, _blocks_of(cvec, self.dims), stop=dual_stop)


def solve_dual_margin(f0, fs, stop) -> IpmSolve:
    """One margin program: :class:`MarginRows` of ``fs``, solved for
    ``f0``."""
    return MarginRows(fs).solve(f0, stop)


# ---------------------------------------------------------------------------
# Operator-norm minimization over a matrix subspace
# ---------------------------------------------------------------------------


def minimize_opnorm(target, subspace_basis, tol: float = 1e-8):
    """Minimize ``||target - x||`` over x in the real span of
    ``subspace_basis`` (for a complex span, pass the stack with
    ``1j * stack`` appended).

    One :func:`solve_dual_margin` solve over the real coordinates u:
    maximize lambda subject to [[0, R], [R*, 0]] - lambda I >= 0 with
    R = target - sum_i u_i h_i, whose optimum is -min ||R||.  Each iterate
    carries both bounds.  The upper one comes from the dual side: value =
    ||R(u)||, recomputed from the coordinates u, so it is attained by them.
    The lower one comes from the primal side: W, the off-diagonal block of
    the trace-one primal point projected off the span, pairs to zero with
    every x in the span, so ``||target - x|| >= |Re<target, W>| / ||W||_1``
    for all of them, less an allowance for the rounding of W and of the
    pairing.  The solve stops when value exceeds that bound by at most
    ``tol * max(1, value)``, or when value <= tol.  Returns
    ``(value, coeffs)`` with real coefficients; raises
    InconclusiveAtTolerance when no iterate certifies.
    """
    t0 = matcore.as_cmatrix(target)
    stack = np.asarray(subspace_basis, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != t0.shape:
        raise ShapeMismatch("basis elements must share the target's shape")
    p, q = t0.shape
    if stack.shape[0] == 0:
        return op_norm(t0), np.zeros(0)

    def offdiag(m):
        out = np.zeros(m.shape[:-2] + (p + q, p + q), dtype=np.complex128)
        out[..., :p, p:] = m
        out[..., p:, :p] = np.swapaxes(m, -1, -2).conj()
        return out

    on_span = matcore.orthonormalize_real(stack)
    # bounds the rounding of <target, W> and of W's projection, so that a W
    # lost in rounding (as when target lies in the span) proves nothing
    rounding = 8 * np.finfo(float).eps * (stack.shape[0] + 1) * (p * q + 1) * np.linalg.norm(t0)

    def stop(u, _lam, x):
        value = op_norm(t0 - np.einsum("t,tab->ab", u, stack))
        x12 = x[0][:p, p:]
        w = x12 - np.einsum("t,tab->ab", np.einsum("tab,ab->t", on_span.conj(), x12).real,
                            on_span)
        w_norm = float(np.linalg.svd(w, compute_uv=False).sum())
        pairing = abs(np.vdot(t0, w).real) - rounding * np.linalg.norm(x12)
        lower = pairing / w_norm if w_norm > 0 else 0.0
        if value <= tol or value - lower <= tol * max(1.0, value):
            return value, u
        return None

    sol = solve_dual_margin([offdiag(t0)], [-offdiag(stack)], stop)
    if sol.stopped is None:
        raise InconclusiveAtTolerance(f"norm minimization solve {sol.status} after "
                                      f"{sol.iterations} iterations (gap {sol.gap:.1e})")
    return sol.stopped


# ---------------------------------------------------------------------------
# Linear maps between matrix subspaces, and the cc oracle
# ---------------------------------------------------------------------------


# (rtol, floor) of matcore.numerical_rank for a map's domain family, and so
# the kernel test of envelope._completion_map: s > 1e-9 max(s_max, 1) counts
DOMAIN_RANK_CUT = (1e-9, 1.0)


class LinearMapSpec:
    """A linear map from a matrix subspace W of M_p into M_q.

    Given by a spanning family of W and the image of each member, both
    read off one thin SVD of the family, D = U S V*: the family is
    independent when all d singular values pass :data:`DOMAIN_RANK_CUT`,
    V* is the orthonormal domain, and column i of ``family_coeffs`` =
    conj(U) S^-1 holds the coefficients of ``on_domain[i]`` over the
    family, which carry the images along.  A dependent family, or one with
    more members than M_p has dimensions (then U is full), is refused with
    DependentFamily, whose certificate c = conj(U[:, r]), r the rank, has
    ||c|| = 1 and ||sum_t c_t D_t|| = s_r below the cut.
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
        flat = dom.reshape(len(dom), -1)
        u, sv, vh = np.linalg.svd(flat, full_matrices=flat.shape[0] > flat.shape[1])
        rank = matcore.numerical_rank(sv, *DOMAIN_RANK_CUT)
        if rank < len(dom):
            raise DependentFamily("domain family is numerically dependent", u[:, rank].conj())
        self.family_coeffs = u.conj() / sv
        self.on_domain = vh.reshape(dom.shape)
        self.on_images = np.einsum("ti,tab->iab", self.family_coeffs, img)
        self.p = dom.shape[1]
        self.q = img.shape[1]

    @property
    def dim(self):
        return self.on_domain.shape[0]

    @cached_property
    def domain_trace_norms(self):
        """The trace norms ||w_t||_1 of the ON domain elements, which
        :func:`_certified_cb_bound` weighs at every certified iterate."""
        return np.linalg.svd(self.on_domain, compute_uv=False).sum(axis=1)

    def apply_level(self, coeffs):
        """Entrywise application at level k; coeffs has shape (k, k, dim)."""
        return amplify(coeffs, self.on_images)

    def element_level(self, coeffs):
        return amplify(coeffs, self.on_domain)

    def coeffs_of(self, m):
        return np.einsum("tab,ab->t", self.on_domain.conj(), np.asarray(m, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Interior-point solve of the scaling program
# ---------------------------------------------------------------------------


@dataclass
class ScaleSolve(IpmSolve):
    """:class:`IpmSolve` of the scaling program: ``x`` and ``z`` are its
    Choi blocks and ``s`` the scaling."""

    s: float = 0.0


def _hkm_max_scale(f, a, b, stop=None) -> ScaleSolve:
    """Maximize s over ``{X >= 0, s >= 0 : Re<F_i, X> + a_i s = b_i}``: the
    two-block case [X, s] of :func:`_hkm`, with objective -s, on the rows
    of :func:`_scale_rows`.  ``stop(X, s, Z)``, when given, is called on
    every iterate with its Choi block, its scaling and the Choi block of
    its dual slack, and ends the solve at the first iterate where it
    returns something other than None (kept in ``stopped``, with status
    ``IPM_STOPPED``)."""
    n = f.shape[1]
    rows, rhs = _scale_rows(f, a, b)
    cost = [np.zeros((n, n), dtype=np.complex128), -np.ones((1, 1), dtype=np.complex128)]
    scale_stop = None
    if stop is not None:
        def scale_stop(x, _y, z, _worst):
            return stop(x[0], float(x[1][0, 0].real), z[0])
    sol = _hkm(rows, rhs, cost, stop=scale_stop)
    return ScaleSolve(**{**vars(sol), "x": sol.x[0], "z": sol.z[0],
                         "s": float(sol.x[1][0, 0].real)})


def _scale_rows(f, a, b):
    """Orthonormal rows ``([F', a'], b')`` with the affine set of the rows
    ``Re<F_i, X> + a_i s = b_i``, whose F_i must be orthonormal, as
    :func:`_choi_rows` writes them.

    The rows [F | a] then have Gram matrix I + a a^T, whose inverse square
    root is I - c a a^T with c = 1 / (r (1 + r)), r = sqrt(1 + |a|^2), so
    F' = F - c a (a^T F), a' = a / r and b' = b - c a (a^T b): O(m N) work
    for m rows on N = n^2 coordinates, where an SVD would cost O(m^2 N).
    a' is returned as the (m, 1, 1) stack of the scalar block."""
    a = np.asarray(a, dtype=float)
    r = np.sqrt(1.0 + a @ a)
    c = 1.0 / (r * (1.0 + r))
    rows = [f - (c * a)[:, None, None] * np.tensordot(a, f, axes=1),
            (a / r).astype(np.complex128)[:, None, None]]
    return rows, b - c * a * (a @ b)


def _choi_rows(map_spec: LinearMapSpec):
    """Rows ``(f, a, b)`` of the scaling program, ``Re<F_i, C> + a_i s =
    b_i``, with orthonormal Hermitian F_i on the 2pq support.

    A CP map sending I_p (+) 0 to I_q (+) 0 has diagonal Choi blocks
    0 <= Phi(E_kk) <= I_q (+) 0 for k < p, so its Choi matrix vanishes on
    every index (k, b) with k < p <= b < 2q, and symmetrically for the
    lower corner.  The remaining 2pq indices, the (k < p, b < q) corner
    first, carry the whole program: C = [[C11, C12], [C12*, C22]] with
    pq x pq blocks, which must satisfy

    * Tr_1 C11 = I_q and Tr_1 C22 = I_q: q^2 rows each, kron(I_p, E) /
      sqrt(p) over the Hermitian ON basis E of M_q;
    * K_t(C12) := sum_kl (w_t)_kl C12[(k, .), (l, .)] = s psi(w_t) for each
      ON domain element w_t: 2q^2 rows each, the off-diagonal
      kron(conj(w_t), G) / sqrt(2) over G in {E, iE}.

    The program is strictly feasible there (the pinching onto the corners
    is an interior point at s = 0)."""
    p, q, d = map_spec.p, map_spec.q, map_spec.dim
    pq, qq = p * q, q * q
    herm = rvec_to_herm(np.eye(qq), q)
    gs = np.concatenate([herm, 1j * herm])
    diag = np.einsum("kl,ebc->ekblc", np.eye(p), herm).reshape(qq, pq, pq) / np.sqrt(p)
    off = np.einsum("tkl,gbc->tgkblc", map_spec.on_domain.conj(), gs)
    off = off.reshape(2 * qq * d, pq, pq) / np.sqrt(2)
    f = np.zeros((2 * qq * (1 + d), 2 * pq, 2 * pq), dtype=np.complex128)
    f[:qq, :pq, :pq] = diag
    f[qq : 2 * qq, pq:, pq:] = diag
    f[2 * qq :, :pq, pq:] = off
    f[2 * qq :, pq:, :pq] = off.conj().transpose(0, 2, 1)
    a = np.zeros(f.shape[0])
    a[2 * qq :] = -np.sqrt(2) * np.einsum("gbc,tbc->tg", gs.conj(),
                                          map_spec.on_images).real.reshape(-1)
    b = np.zeros(f.shape[0])
    b[: 2 * qq] = np.tile(np.trace(herm, axis1=1, axis2=2).real, 2) / np.sqrt(p)
    return f, a, b


@dataclass
class CcResult:
    """A cc verdict with its certificate data; ``route`` says what decided
    it: the zero map, the certified Choi bound (Yes, from the closed-form
    point or an interior-point iterate), the gradient witness (No, in
    closed form) or the dual witness (No, from an interior-point iterate);
    a Marginal, with neither certificate, carries the Choi bound's route.
    ``iterations`` counts the interior-point iterations, 0 for a verdict
    settled in closed form.  A Yes by the Choi bound carries its
    certificate: ``choi_point``, the PSD Choi block on the program's
    support after the shift of :func:`_certified_cb_bound`, and
    ``scale``, the s it was certified at; ``cb_estimate`` is the bound
    they give, an upper bound in [cb, 1 + tol].  A No carries its level-q
    witness (``violating_coeffs``, with ||y|| = 1) and ``cb_estimate`` =
    ``violation_norm`` = ||psi_q(y)||, a lower bound in (1 + tol, cb].
    ``residual`` is max(||Tr_1 C_ii - I_q|| / sqrt(p), ||K_t(C12) - s
    psi(w_t)|| / sqrt(2)) over the blocks of the Choi point a Yes or
    Marginal verdict was read at (:func:`_certified_cb_bound`); a No, whose
    witness is checked without a Choi point, carries none."""

    verdict: str
    cb_estimate: float
    level: int | None = None
    violating_coeffs: np.ndarray | None = None
    violation_norm: float | None = None
    residual: float | None = 0.0
    iterations: int = 0
    diagnostics: str = ""
    route: str = ROUTE_CHOI_BOUND
    choi_point: np.ndarray | None = None
    scale: float | None = None


def cc_test(map_spec: LinearMapSpec, tol: float = 1e-7) -> CcResult:
    """Decide whether the map is completely contractive.

    Two certificates written in closed form are tried first, the cheaper
    one first, and each is checked by the code that checks the
    interior-point stage's certificates:

    * No: the level-q element with coefficients conj(psi(w_t))
      (:func:`_gradient_witness`), scaled to ||y|| = 1, whose recomputed
      ratio ||psi_q(y)|| exceeds 1 + max(tol, 1e-9).  The verdict's route
      is ``ROUTE_GRADIENT_WITNESS`` and its ``cb_estimate`` the ratio, a
      lower bound in (1 + tol, cb].
    * Yes: the Choi point of :func:`_closed_form_choi_point` and its
      scaling s, whose bound from :func:`_certified_cb_bound` is at most
      1 + tol.  The verdict carries the point and s as an interior-point
      Yes does, under the same route ``ROUTE_CHOI_BOUND``.

    Both report ``iterations`` 0.  A proven cb <= 1 + tol and a witness
    above it cannot both hold, so the order changes no verdict.  A map
    that neither settles goes to the interior-point stage
    (:func:`_cc_interior_point`) and gets its verdict; maps into the
    scalars, q = 1, take the same path.
    """
    if all(np.abs(y).max(initial=0.0) < 1e-14 for y in map_spec.on_images):
        return CcResult(verdict=CC_YES, cb_estimate=0.0, diagnostics="zero map",
                        route=ROUTE_ZERO_MAP)
    witness = _gradient_witness(map_spec)
    if _proves_no(witness, tol):
        return _cc_no(map_spec, witness, 0, ROUTE_GRADIENT_WITNESS)
    point, s = _closed_form_choi_point(map_spec)
    cert = _proves_yes(map_spec, point, s, tol)
    if cert is not None:
        return _cc_yes(cert, s, 0)
    return _cc_interior_point(map_spec, tol)


def _cc_interior_point(map_spec: LinearMapSpec, tol: float = 1e-7) -> CcResult:
    """The interior-point stage of :func:`cc_test`.

    The largest admissible scaling s of the CP-extension program over the
    2x2 system is sought by an interior-point solve, and each iterate with
    s >= 1/(1 + tol) is checked afresh: with the Choi matrix shifted to be
    PSD (its computed smallest eigenvalue is lifted to a margin above
    eigvalsh's rounding error), and the block residuals recomputed there,
    the cb-norm is at most ``(1 + 2 eps) / s`` (see
    :func:`_certified_cb_bound`).  The bound is at least 1/s, so no
    iterate with a smaller s can pass.  An iterate whose bound is at most
    ``1 + tol`` ends the solve with CompletelyContractive on that bound
    alone: it is a proof, so no sampled lower bound is consulted.  The
    certified bound is the reported ``cb_estimate``, so it lies anywhere in
    [cb, 1 + tol], and the certifying point and s are carried in the
    result.  Failing that, the same iterate's dual slack gives a level-q
    element y (:func:`_dual_witness`, skipped at the start point, whose
    slack gives none); when ||psi_q(y)|| > 1 + max(tol, 1e-9), with ||y||
    = 1, both recomputed directly, the solve ends with Not completely
    contractive, and the witness ratio is the reported ``cb_estimate``: a
    lower bound anywhere in (1 + tol, cb].  The Yes side is tested first
    without changing any Yes.  The solve runs on toward the optimum only
    while neither certificate holds; one that ends without either is
    Marginal, with the solver's status in the diagnostics.
    """
    pq = map_spec.p * map_spec.q

    def decide(x, s, z):
        cert = _proves_yes(map_spec, x, s, tol)
        if cert is not None:
            return CC_YES, cert
        # the start point z = I has Z12 = 0, hence T = 0 and no witness
        if z[:pq, pq:].any():
            witness = _dual_witness(map_spec, z)
            if _proves_no(witness, tol):
                return CC_NO, witness
        return None

    sol = _hkm_max_scale(*_choi_rows(map_spec), stop=decide)
    if sol.stopped is not None and sol.stopped[0] == CC_YES:
        return _cc_yes(sol.stopped[1], sol.s, sol.iterations)
    if sol.stopped is not None:
        return _cc_no(map_spec, sol.stopped[1], sol.iterations, ROUTE_DUAL_WITNESS)
    solver = (f"Choi solve {sol.status} after {sol.iterations} iterations "
              f"(gap {sol.gap:.1e}, infeasibility "
              f"{max(sol.primal_infeasibility, sol.dual_infeasibility):.1e})")
    bound, residual, _ = _certified_cb_bound(map_spec, sol.x, sol.s)
    _, value = _dual_witness(map_spec, sol.z)
    return CcResult(verdict=CC_MARGINAL, cb_estimate=bound, residual=residual,
                    iterations=sol.iterations,
                    diagnostics=f"{solver}; certified cb bound {bound:.9f} exceeds "
                                f"1 + {tol:.0e}, dual witness reaches {value:.9f}")


def _proves_yes(map_spec: LinearMapSpec, x, s, tol):
    """The certificate ``(bound, residual, C)`` of
    :func:`_certified_cb_bound` for the Choi point ``x`` at scaling ``s``
    when its bound is at most 1 + tol, else None.  The bound is at least
    1/s, so a point with s < 1/(1 + tol) is not tried."""
    if s >= 1.0 / (1.0 + tol):
        cert = _certified_cb_bound(map_spec, x, s)
        if cert[0] <= 1.0 + tol:
            return cert
    return None


def _proves_no(witness, tol) -> bool:
    """Whether a witness ``(coeffs, ratio)`` with a recomputed ratio
    (:func:`_unit_witness`) proves a No: ratio > 1 + max(tol, 1e-9)."""
    return witness[1] > 1.0 + max(tol, 1e-9)


def _cc_yes(cert, s, iterations) -> CcResult:
    """The Yes of a certificate ``(bound, residual, C)`` of
    :func:`_certified_cb_bound` at scaling ``s``."""
    bound, residual, point = cert
    return CcResult(verdict=CC_YES, cb_estimate=bound, residual=residual,
                    iterations=iterations, choi_point=point, scale=s,
                    diagnostics=f"CP extension certified, cb <= {bound:.9f}")


def _cc_no(map_spec: LinearMapSpec, witness, iterations, route) -> CcResult:
    """The No of a level-q witness ``(coeffs, ||psi_q(y)||)`` with ||y|| =
    1, found by ``route``."""
    coeffs, value = witness
    return CcResult(verdict=CC_NO, cb_estimate=value, level=map_spec.q,
                    violating_coeffs=coeffs, violation_norm=value,
                    residual=None, iterations=iterations,
                    diagnostics=f"{route} at level {map_spec.q}, ||psi(y)|| = {value:.9f}",
                    route=route)


def _unit_witness(map_spec: LinearMapSpec, coeffs):
    """``(coeffs / ||y||, ||psi_k(y)|| / ||y||)`` for the level-k element y
    of a coefficient tensor (k, k, dim), both norms recomputed here, so the
    ratio is a true lower bound for the cb-norm; ``(coeffs, 0.0)`` when
    ||y|| < 1e-14."""
    nrm = op_norm(map_spec.element_level(coeffs))
    if nrm < 1e-14:
        return coeffs, 0.0
    coeffs = coeffs / nrm
    return coeffs, op_norm(map_spec.apply_level(coeffs))


def _gradient_witness(map_spec: LinearMapSpec):
    """The level-q element y = sum_t conj(psi(w_t)) ⊗ w_t, as
    :func:`_unit_witness` scales and rates it.

    Its image psi_q(y) = sum_t conj(psi(w_t)) ⊗ psi(w_t) is, up to a
    permutation of indices, the off-diagonal block R of
    :func:`_closed_form_choi_point`; at q = 1, y is the functional's HS
    representer, the element that the dual slack of the interior-point
    stage's first iterate gives."""
    return _unit_witness(map_spec, map_spec.on_images.conj().transpose(1, 2, 0))


def _closed_form_choi_point(map_spec: LinearMapSpec):
    """A PSD point ``C`` of the scaling program's Choi block and its
    scaling ``s``, in closed form (Paulsen's off-diagonal technique).

    C12 = R = sum_t conj(w_t) ⊗ psi(w_t) has K_t(R) = psi(w_t), the w_t
    being orthonormal.  With R = U S V*, [[|R*|, R], [R*, |R|]] =
    [U; V] S [U; V]* is PSD, |R*| = U S U* and |R| = V S V*.  Padding the
    diagonal blocks by I_p / p ⊗ (lam I - Tr_1 |R*|) and I_p / p ⊗
    (lam I - Tr_1 |R|), PSD for lam = the larger of the largest
    eigenvalues of Tr_1 |R*| and Tr_1 |R|, makes both partial traces
    lam I_q; dividing by lam gives Tr_1 C_ii = I_q and K_t(C12) =
    s psi(w_t) at s = 1 / lam.  So cb <= lam.  At q = 1, lam is the trace
    norm of R, the functional's HS representer up to conjugation."""
    p, q = map_spec.p, map_spec.q
    pq = p * q
    r = np.einsum("tkl,tbc->kblc", map_spec.on_domain.conj(),
                  map_spec.on_images).reshape(pq, pq)
    u, sv, vh = np.linalg.svd(r)
    moduli = [(u * sv) @ u.conj().T, (vh.conj().T * sv) @ vh]
    partial = [np.einsum("kbkc->bc", m.reshape(p, q, p, q)) for m in moduli]
    lam = max(float(np.linalg.eigvalsh(t)[-1]) for t in partial)
    c = np.empty((2 * pq, 2 * pq), dtype=np.complex128)
    for i, (m, t) in enumerate(zip(moduli, partial)):
        c[i * pq : (i + 1) * pq, i * pq : (i + 1) * pq] = m + np.kron(
            np.eye(p) / p, lam * np.eye(q) - t)
    c[:pq, pq:] = r
    c[pq:, :pq] = r.conj().T
    return 0.5 * (c + c.conj().T) / lam, 1.0 / lam


def _dual_witness(map_spec: LinearMapSpec, z):
    """Level-q element of the domain read off the dual slack ``z`` of the
    scaling program; returns ``(coeffs, ||psi_q(y)||)`` with ||y|| = 1.

    On the support, whose first pq indices are the (k < p, b < q) corner,
    z = [[Z11, Z12], [Z12*, Z22]] >= 0, so T = Z11^-1/2 Z12 Z22^-1/2
    (pseudo-inverse roots) has ||T|| <= 1.  conj(T), read as a level-q
    element of the domain, attains the cb-norm 1/s at the optimum only
    (Paulsen's off-diagonal argument run backwards; Smith's lemma makes
    level q enough); at an earlier iterate its ratio is some lower bound.
    Both norms are recomputed from the returned coefficients
    (:func:`_unit_witness`), so the value is a true lower bound for the
    cb-norm whatever the quality of z.
    """
    p, q = map_spec.p, map_spec.q
    pq = p * q
    t = (_pinv_sqrt(z[:pq, :pq]) @ z[:pq, pq:] @ _pinv_sqrt(z[pq:, pq:])).reshape(p, q, p, q)
    return _unit_witness(map_spec,
                         np.einsum("tkl,kblc->bct", map_spec.on_domain.conj(), t.conj()))


def _pinv_sqrt(h):
    """Pseudo-inverse square root of a PSD matrix."""
    w, u = np.linalg.eigh(h)
    keep = w > 1e-14 * max(float(w[-1]), 0.0)
    r = np.zeros_like(w)
    r[keep] = 1.0 / np.sqrt(w[keep])
    return (u * r) @ u.conj().T


def _certified_cb_bound(map_spec: LinearMapSpec, x, s):
    """Upper bound on the cb-norm from a Choi point ``x`` (on the support)
    at scaling ``s``; returns ``(bound, residual, C)`` with C the shifted
    point the bound holds for and ``residual`` = max(||R_ii|| / sqrt(p),
    ||D_t|| / sqrt(2)) over the residuals below.

    ``x`` is shifted so that its computed smallest eigenvalue w becomes at
    least ``delta = n eps ||x||``, which bounds the rounding error of w;
    the shifted Choi matrix C = [[C11, C12], [C12*, C22]] is then PSD, i.e.
    the map Phi of C is CP.  The shift enters the residuals, recomputed on
    C's blocks: R_ii = Tr_1 C_ii - I_q and D_t = K_t(C12) - s psi(w_t), as
    in :func:`_choi_rows`.  What remains unaccounted is the rounding in
    the residuals themselves, of order eps, far below any working
    tolerance.  On the 2x2 system Phi equals Theta_s + E, Theta_s the
    s-scaled system map and E a linear map whose cb-norm is at most

        eps = ||R_11|| + ||R_22|| + 2 sum_t ||w_t||_1 ||D_t||.

    For y at level k with ||y|| <= 1 the element P = [[1, y], [y*, 1]] is
    positive of norm at most 2, so Theta_s(P) >= -2 eps, which reads
    s ||psi_k(y)|| <= 1 + 2 eps.

    The shift is decided without eigvalsh when a Cholesky test
    (:func:`matcore.certified_above`) proves that the smallest eigenvalue
    eigvalsh would compute exceeds 2 n eps ||x||_F, which is at least the
    delta eigvalsh's values would give (their largest modulus exceeds
    ||x|| <= ||x||_F by rounding only): then x is returned unshifted, as
    the eigenvalue path returns it.  Otherwise that path runs.
    """
    n = x.shape[0]
    if not matcore.certified_above(x, 2.0 * n * np.finfo(float).eps * np.linalg.norm(x)):
        w = np.linalg.eigvalsh(x)
        delta = n * np.finfo(float).eps * np.abs(w).max()
        if w[0] < delta:
            x = x + (delta - w[0]) * np.eye(n)
    p, q = map_spec.p, map_spec.q
    c = x.reshape(2, p, q, 2, p, q)
    r_diag = op_norms(np.einsum("ikbikc->ibc", c) - np.eye(q))
    d_norms = op_norms(np.einsum("tkl,kblc->tbc", map_spec.on_domain, c[0, :, :, 1])
                       - s * map_spec.on_images)
    eps = float(r_diag.sum() + 2.0 * map_spec.domain_trace_norms @ d_norms)
    bound = (1.0 + 2.0 * eps) / s if s > 0 else np.inf
    residual = max(float(r_diag.max()) / np.sqrt(p), float(d_norms.max()) / np.sqrt(2))
    return bound, residual, x


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
    probe the boundary much better than Gaussians).  A level's normals
    come from one ``standard_normal`` call and are split in that trial
    order, and the level is evaluated as one stack
    (:func:`matcore.op_norms`), so the bound for a given seed is bit for
    bit the one a per-trial loop returns.
    """
    if max_level < 1:
        raise ShapeMismatch("max_level must be >= 1")
    rng = np.random.default_rng(seed)
    p, dim = map_spec.p, map_spec.dim
    per_level = max(1, samples // max_level)
    best = 0.0
    for k in range(1, max_level + 1):
        g_size = 2 * k * k * dim
        pair_size = g_size + 2 * (k * p) ** 2
        pairs, single = divmod(per_level, 2)
        z = rng.standard_normal(pairs * pair_size + single * g_size)
        paired = z[: pairs * pair_size].reshape(pairs, pair_size)
        gauss = matcore.complex_normals(
            np.concatenate([paired[:, :g_size].ravel(), z[pairs * pair_size:]]), (k, k, dim))
        haar = matcore.complex_normals(paired[:, g_size:], (k * p, k * p))
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
