"""Function spaces on a finite point set: the commutative specialization.

For X a conjugation-closed subspace of functions on K = {1..m} whose
pointwise-nonnegative cone spans it, the boundary is computed by the same
recipe as the matrix pipeline, but with linear programs: merge points that
X does not separate, drop points where everything vanishes, then remove
points one at a time whenever the sup of |f(k)| over the unit ball taken
on the other points stays at most 1.  Each point test is one exact LP
over the real part of X, which has the same sup because X is
conjugation-closed, and whose ball is invariant under f -> -f, so one
objective gives the sup (:func:`_point_sup`).  The spanning hypothesis is
decided first by one LP whose primal and dual are the two certificates: a
function in X positive on the support, or a probability measure
orthogonal to X (:func:`_require_spanning_functions`).

Both LPs go to one dense two-phase simplex (:func:`_simplex`, Bland's
rule), which reads the primal point and the row duals off one tableau.
Every verdict is decided by re-checking a certificate built from them,
never by the solver's objective.  The LP route is deliberately
independent of the matrix SDP route; :func:`crosscheck_diagonal` embeds
the space as diagonal matrices, runs the envelope pipeline, and compares
the surviving blocks point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ncshilov import envelope as envelope_mod
from ncshilov import stargen
from ncshilov.errors import ConeDoesNotSpan, InconclusiveAtTolerance, ShapeMismatch, ZeroSpace
from ncshilov.timing import StageTimes

DECISION_BAND = 1e-6
CONE_TOL = 1e-9  # the spanning-cone verdict's tolerance
LP_ROUNDING = 1e-9  # the equality residual an LP certificate may carry
_PIVOT_TOL = 1e-11  # the least tableau entry taken as a pivot or a descent


@dataclass
class FunctionSpace:
    """A conjugation-closed subspace of functions on m points, given by an
    orthonormal basis of complex m-vectors."""

    points: int
    basis: np.ndarray  # (d, m) orthonormal rows
    is_real: bool = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def real_basis(self) -> np.ndarray:
        """Real-ON basis of the real-valued part (dimension = dim for a
        conjugation-closed space)."""
        cands = np.concatenate([self.basis.real, self.basis.imag], axis=0)
        _, s, vh = np.linalg.svd(cands, full_matrices=False)
        rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
        return vh[:rank]


def validate_function_space(generators) -> FunctionSpace:
    """Orthonormalize the span of the generators with their conjugates."""
    gens = np.asarray(generators, dtype=np.complex128)
    if gens.ndim != 2:
        raise ShapeMismatch("expected a list of vectors")
    if not np.all(np.isfinite(gens.real)) or not np.all(np.isfinite(gens.imag)):
        raise ShapeMismatch("generators contain NaN or Inf")
    if np.abs(gens).max(initial=0.0) < 1e-12:
        raise ZeroSpace("all generators are numerically zero")
    stack = np.concatenate([gens, gens.conj()], axis=0)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    basis = vh[:rank]
    is_real = bool(np.abs(basis.imag).max(initial=0.0) < 1e-12
                   and np.abs(gens.imag).max(initial=0.0) < 1e-12)
    return FunctionSpace(points=gens.shape[1], basis=basis, is_real=is_real)


class _LP(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded" | "pivot limit"
    x: np.ndarray | None  # the primal point, at "optimal"
    y: np.ndarray | None  # the row duals, or a Farkas ray at "infeasible"
    pivots: int


def _simplex(a, b, c) -> _LP:
    """min c.x subject to a x = b, x >= 0, by a dense two-phase tableau.

    Bland's rule picks the lowest-index improving column and, among the
    rows tied in the ratio test, the one whose basic variable has the
    lowest index; it cannot cycle (Bland 1977).  The rows are signed so
    that b >= 0 and each gets an artificial variable.  Phase one
    minimizes their sum; an optimum above ``LP_ROUNDING`` ends the solve
    as "infeasible", with y a Farkas ray: a^T y <= 0 and b.y > 0.  Else
    each artificial still basic is pivoted out on the largest entry of its
    row (a row without a usable one is redundant), and phase two minimizes c.x
    with the artificial columns barred from entering.  The artificial
    columns hold the inverse basis, so their reduced costs give the row
    duals: at an optimum a^T y <= c and b.y = c.x, up to rounding.
    Callers re-check whatever they conclude from x or y."""
    rows, n = a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    t = np.zeros((rows + 1, n + rows + 1))
    t[:rows, :n] = a * sign[:, None]
    t[:rows, n:-1] = np.eye(rows)
    t[:rows, -1] = b * sign
    t[-1, :n] = -t[:rows, :n].sum(axis=0)
    t[-1, -1] = -t[:rows, -1].sum()
    basis = np.arange(n, n + rows)
    pivots, limit = 0, 50 * (n + rows)

    def pivot(r, j):
        nonlocal pivots
        t[r] /= t[r, j]
        col = t[:, j].copy()
        col[r] = 0.0
        t[:] -= np.outer(col, t[r])
        basis[r] = j
        pivots += 1

    def descend() -> str:
        while pivots < limit:
            improving = np.flatnonzero(t[-1, :n] < -_PIVOT_TOL)
            if improving.size == 0:
                return "optimal"
            j = improving[0]
            bounding = np.flatnonzero(t[:rows, j] > _PIVOT_TOL)
            if bounding.size == 0:
                return "unbounded"
            ratios = np.maximum(t[bounding, -1], 0.0) / t[bounding, j]
            tied = bounding[ratios <= ratios.min() * (1.0 + 1e-12)]
            pivot(tied[np.argmin(basis[tied])], j)
        return "pivot limit"

    status = descend()
    if status != "optimal":
        return _LP(status, None, None, pivots)
    if -t[-1, -1] > LP_ROUNDING:
        return _LP("infeasible", None, sign * (1.0 - t[-1, n:-1]), pivots)
    for r in np.flatnonzero(basis >= n):
        j = np.argmax(np.abs(t[r, :n]))
        if abs(t[r, j]) > _PIVOT_TOL:
            pivot(r, j)
    cost = np.concatenate([c, np.zeros(rows)])
    t[-1, :-1] = cost - cost[basis] @ t[:rows, :-1]
    t[-1, -1] = -cost[basis] @ t[:rows, -1]
    status = descend()
    if status != "optimal":
        return _LP(status, None, None, pivots)
    x = np.zeros(n + rows)
    x[basis] = t[:rows, -1]
    return _LP(status, x[:n], sign * -t[-1, n:-1], pivots)


def _require_spanning_functions(fs: FunctionSpace, rb: np.ndarray) -> int:
    """Return the pivot count of one LP that certifies that the
    pointwise-nonnegative cone spans the space at tolerance ``CONE_TOL``;
    raise ConeDoesNotSpan, with its measure and bound, when it does not.

    The commutative :func:`stargen.cone_spans`.  ``rb`` is a real
    orthonormal basis of the real part X_r, vals its values on the
    support S and P1 the X_r-coordinates of the projection of 1.  The LP
    is min beta subject to vals mu = beta P1, sum mu = 1, mu >= 0, which
    the uniform measure satisfies.  Its row duals give a with a.P1 = -1,
    and f = -a vals in X_r is at least the optimum on S with sum one; by
    Gordan's theorem either some f in X_r is positive on S (an order
    unit), or a probability measure mu on S is orthogonal to X.  The cone
    spans when min_S f > CONE_TOL sum f.  The optimal mu is checked
    afresh: with nu = <mu, P1> / ||P1||^2 and rho = ||P mu - nu P1||,
    every nonnegative f in X_r of sum one has min_S f <= <mu, f> <=
    nu + rho, so nu + rho <= CONE_TOL says it does not.  When P1 = 0
    nothing sums to one: the uniform measure on S is orthogonal to X and
    the cone is {0}.  Otherwise InconclusiveAtTolerance."""
    support = np.flatnonzero(np.abs(fs.basis).max(axis=0) >= 1e-10)
    vals = rb[:, support]
    ones = rb.sum(axis=1)  # X_r-coordinates of P 1
    d, s = vals.shape
    mu, bound = np.full(s, 1.0 / s), -np.inf
    if np.linalg.norm(vals @ mu) > CONE_TOL:  # else P1 = 0
        a = np.zeros((d + 1, s + 2))
        a[:d, :s], a[:d, s], a[:d, s + 1], a[d, :s] = vals, -ones, ones, 1.0
        lp = _simplex(a, np.r_[np.zeros(d), 1.0], np.r_[np.zeros(s), 1.0, -1.0])
        bound = np.inf
        if lp.status == "optimal":
            f = -lp.y[:d] @ vals
            if f.min() > CONE_TOL * f.sum():
                return lp.pivots
            mu = np.clip(lp.x[:s], 0.0, None)
            mu /= mu.sum()
            mc = vals @ mu
            nu = float(mc @ ones) / float(ones @ ones)
            bound = nu + float(np.linalg.norm(mc - nu * ones))
        if not bound <= CONE_TOL:
            raise InconclusiveAtTolerance(
                f"spanning-cone LP without a certificate: {lp.status}, {lp.pivots} pivots")
    measure = np.zeros(fs.points)
    measure[support] = mu
    zero = " (the cone is {0})" if bound < 0 else ""
    raise ConeDoesNotSpan(
        f"pointwise-nonnegative cone does not span the space{zero}: a separating measure "
        f"bounds the least value of sum-one positives by {bound:.3g} <= tol {CONE_TOL:g}",
        certificate=measure, bound=bound)


@dataclass
class PointVerdict:
    """One point test, with the certificate that decided it.

    ``others`` are the class indices the test's LP ran over, and
    ``pivots`` its simplex pivot count.  ``certificate`` names the kind:

    - "combination" (loose): ev_idx = sum_o c_o ev_o on X, with c =
      ``coefficients`` over ``others``, up to ``residual`` (the largest
      entry of the equation's error on a real basis of X_r), and sum |c_o|
      <= 1 + tol, so |f(idx)| <= max over others |f| on X.
    - "function" (essential): g in X_r, its ``values`` on every class,
      with |g| <= 1 on ``others`` and g(idx) > 1 + max(tol, DECISION_BAND).
    - "kernel" (essential, sup = inf): g in X_r, its ``values`` on every
      class, with g(idx) = 1 and |g| <= ``residual`` on ``others``.
    - "" (inconclusive): neither certificate re-checked."""

    point_class: tuple
    sup_value: float
    status: str  # "loose" | "essential" | "inconclusive"
    others: tuple = ()
    certificate: str = ""
    coefficients: np.ndarray | None = None
    values: np.ndarray | None = None
    residual: float | None = None
    pivots: int = 0


@dataclass
class BoundaryResult:
    """Boundary of a function space on merged point classes.

    ``classes`` lists the separation classes of the original points (after
    merging unseparated ones and dropping common zeros); ``kept`` indexes
    the classes that survive point elimination; ``point_map`` sends each
    original point to its class index or None when the space vanishes
    there.  ``verdicts`` records every elimination decision in order, one
    per test (a class found Essential is tested once)."""

    classes: list[tuple]
    kept: list[int]
    point_map: list
    verdicts: list[PointVerdict] = field(default_factory=list)

    @property
    def boundary_points(self) -> list[tuple]:
        return [self.classes[i] for i in self.kept]


def boundary(fs: FunctionSpace, tol: float = 1e-7,
             stats: StageTimes | None = None) -> BoundaryResult:
    """Shilov boundary of the space by LP point elimination.

    Raises ConeDoesNotSpan, carrying its certificate measure, when the
    pointwise-nonnegative cone does not span the space (one LP, see
    :func:`_require_spanning_functions`), and InconclusiveAtTolerance when
    that LP or a point verdict gives no certificate.  Each scan removes the
    first loose class it meets and starts over.  A class found Essential is
    not tested again: removing a point only drops constraints from its LP,
    so its sup stays above 1 + tol.  ``stats``, when given, receives the
    wall-clock time of the spanning-cone LP and of each point test, each
    with its deciding certificate and pivot count."""
    stats = stats if stats is not None else StageTimes()
    # both LPs run over the real part X_r; a real-valued basis is already a
    # basis of X_r
    rb = fs.basis.real if fs.is_real else fs.real_basis()
    with stats.stage("spanning-cone LP") as timed:
        pivots = _require_spanning_functions(fs, rb)
        timed.detail = f"spans by an order unit, {pivots} pivots"
    values = fs.basis.T  # (m, d): the value vector of the basis at each point
    m = fs.points
    # drop points where every function vanishes, then merge unseparated ones
    point_map: list = [None] * m
    classes: list[tuple] = []
    reps: list[np.ndarray] = []
    for p in range(m):
        v = values[p]
        if np.abs(v).max() < 1e-10:
            continue
        hit = None
        for ci, r in enumerate(reps):
            if np.abs(v - r).max() <= 1e-9 * max(1.0, np.abs(r).max()):
                hit = ci
                break
        if hit is None:
            reps.append(v)
            classes.append((p,))
            hit = len(classes) - 1
        else:
            classes[hit] = classes[hit] + (p,)
        point_map[p] = hit
    if not classes:
        raise ZeroSpace("space vanishes at every point")

    vals = rb[:, [c[0] for c in classes]].T  # (n_classes, dim X_r)
    active = list(range(len(classes)))
    essential: set[int] = set()
    verdicts: list[PointVerdict] = []
    changed = True
    while changed and len(active) > 1:
        changed = False
        for idx in list(active):
            if idx in essential:
                continue
            others = [c for c in active if c != idx]
            with stats.stage(f"LP point test {classes[idx]}") as timed:
                verdict = replace(_point_sup(vals, idx, others, tol), point_class=classes[idx])
                timed.detail = (f"{verdict.status} by {verdict.certificate or 'no certificate'}, "
                                f"{verdict.pivots} pivots")
            verdicts.append(verdict)
            if verdict.status == "inconclusive":
                raise InconclusiveAtTolerance(
                    f"point class {classes[idx]} marginal: sup = {verdict.sup_value:.9f}")
            if verdict.status == "loose":
                active.remove(idx)
                changed = True
                break
            essential.add(idx)
    return BoundaryResult(classes=classes, kept=active, point_map=point_map,
                          verdicts=verdicts)


def _point_sup(vals, idx, others, tol) -> PointVerdict:
    """sup{|f(idx)| : f in X, max over others |f| <= 1}, by one exact LP,
    decided by the certificate it yields (see :class:`PointVerdict`).

    ``vals`` holds, for each class, the values of a real basis of the real
    part X_r.  The sup over X equals the sup over X_r: X is
    conjugation-closed, so for f in X and theta = arg f(idx) the function
    g = Re(e^(-i theta) f) lies in X_r, with |g| <= |f| everywhere and
    g(idx) = |f(idx)|.  With A the rows of ``others`` and e the row of
    idx, the LP is min ||c||_1 subject to A^T c = e (c split as c+ - c-),
    whose dual is max e.g subject to |A g| <= 1: the sup.  The optimal c is
    the loose certificate; the duals y scaled to g = y / max(1, max |A y|)
    are the essential one.  An infeasible LP (e outside the span of A's
    rows) has sup = inf, and its Farkas ray is a g vanishing on the others
    with e.g > 0.  The returned verdict's ``point_class`` is left empty."""
    a, e = vals[others], vals[idx]
    k = len(others)
    lp = _simplex(np.concatenate([a.T, -a.T], axis=1), e, np.ones(2 * k))
    verdict = PointVerdict(point_class=(), sup_value=np.nan, status="inconclusive",
                           others=tuple(others), pivots=lp.pivots)
    if lp.status == "infeasible" and e @ lp.y > 0:
        g = lp.y / (e @ lp.y)
        residual = float(np.abs(a @ g).max())
        if residual <= LP_ROUNDING:
            return replace(verdict, sup_value=np.inf, status="essential", certificate="kernel",
                           values=vals @ g, residual=residual)
    if lp.status != "optimal":
        return verdict
    coeffs = lp.x[:k] - lp.x[k:]
    sup = float(np.abs(coeffs).sum())
    residual = float(np.abs(a.T @ coeffs - e).max())
    if residual <= LP_ROUNDING and sup <= 1.0 + tol:
        return replace(verdict, sup_value=sup, status="loose", certificate="combination",
                       coefficients=coeffs, residual=residual)
    g = lp.y / max(1.0, float(np.abs(a @ lp.y).max()))
    if e @ g > 1.0 + max(tol, DECISION_BAND):
        return replace(verdict, sup_value=sup, status="essential", certificate="function",
                       values=vals @ g)
    return replace(verdict, sup_value=sup)


def diagonal_embedding(fs: FunctionSpace) -> stargen.MatrixSpace:
    """The space as diagonal matrices in M_m."""
    gens = [np.diag(v) for v in fs.basis]
    return stargen.validate_space(gens)


def crosscheck_diagonal(fs: FunctionSpace, seed: int = 0, tol: float = 1e-7,
                        stats: StageTimes | None = None) -> dict:
    """Run the matrix pipeline on the diagonal embedding and compare with
    the LP boundary: surviving blocks must be size one and match the
    surviving point classes exactly.  The LP :class:`BoundaryResult` is
    returned under ``"lp_result"``.  ``stats`` is handed to both
    pipelines."""
    lp = boundary(fs, tol=tol, stats=stats)
    x = diagonal_embedding(fs)
    env = envelope_mod.compute_envelope(x, seed=seed, tol=tol, stats=stats)
    all_size_one = all(k == 1 for k in env.abstract_blocks)
    # map each retained central projection to the set of original points
    # where it is supported
    retained_points = set()
    for blk in env.blocks.blocks:
        p_orig = env.coords @ blk.projection @ env.coords.conj().T
        diag = np.real(np.diagonal(p_orig))
        for i, val in enumerate(diag):
            if val > 0.5:
                retained_points.add(i)
    lp_points = set()
    for ci in lp.kept:
        lp_points.update(lp.classes[ci])
    return {
        "lp_boundary_classes": [tuple(lp.classes[i]) for i in lp.kept],
        "matrix_retained_points": sorted(retained_points),
        "lp_points": sorted(lp_points),
        "all_blocks_size_one": all_size_one,
        "matches": bool(all_size_one and retained_points == lp_points),
        "lp_result": lp,
    }
