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

The LP route (scipy's HiGHS) is deliberately independent of the matrix
SDP route; :func:`crosscheck_diagonal` embeds the space as diagonal
matrices, runs the envelope pipeline, and compares the surviving blocks
point by point.  The matrix pipeline needs numpy alone, so
:mod:`scipy.optimize` is imported by the two LP functions, and HiGHS
loads at the first LP, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ncshilov import envelope as envelope_mod
from ncshilov import stargen
from ncshilov.errors import ConeDoesNotSpan, InconclusiveAtTolerance, ShapeMismatch, ZeroSpace
from ncshilov.timing import StageTimes

DECISION_BAND = 1e-6
CONE_TOL = 1e-9  # the spanning-cone verdict's tolerance


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


def _require_spanning_functions(fs: FunctionSpace):
    """Raise ConeDoesNotSpan, with its measure and bound, unless the
    pointwise-nonnegative cone spans the space at tolerance ``CONE_TOL``.

    The commutative :func:`stargen.cone_spans`: one LP over the real part
    X_r on the support S, maximize t subject to f >= t on S, sum f = 1,
    f in X_r.  By Gordan's theorem either some f in X_r is positive on S
    (an order unit), or a probability measure mu on S is orthogonal to X.
    The optimum certifies the first when min_S f > CONE_TOL.  The dual
    marginals give mu, checked afresh: with P the projection onto X_r,
    nu = <mu, P1> / ||P1||^2 and rho = ||P mu - nu P1||, every nonnegative
    f in X_r of sum one has min_S f <= <mu, f> <= nu + rho <= CONE_TOL.
    An infeasible LP means nothing sums to one: the uniform measure on S is
    orthogonal to X, the cone is {0}.  Otherwise InconclusiveAtTolerance."""
    from scipy.optimize import linprog

    rb = fs.real_basis()
    support = np.flatnonzero(np.abs(fs.basis).max(axis=0) >= 1e-10)
    vals = rb[:, support]
    ones = rb.sum(axis=1)  # X_r-coordinates of P 1
    d, s = vals.shape
    res = linprog(c=np.r_[np.zeros(d), -1.0], A_ub=np.c_[-vals.T, np.ones(s)],
                  b_ub=np.zeros(s), A_eq=np.r_[ones, 0.0][None], b_eq=[1.0],
                  bounds=[(None, None)] * (d + 1), method="highs")
    mu, bound = None, np.inf
    if res.status == 0:
        f = res.x[:d] @ vals
        if f.min() > CONE_TOL * f.sum():
            return
        mu = np.clip(-res.ineqlin.marginals, 0.0, None)
        if mu.sum() > 0:
            mu = mu / mu.sum()
            mc = vals @ mu
            nu = float(mc @ ones) / float(ones @ ones)
            bound = nu + float(np.linalg.norm(mc - nu * ones))
    elif res.status == 2:
        mu = np.full(s, 1.0 / s)
        if np.linalg.norm(vals @ mu) <= CONE_TOL:
            bound = -np.inf
    if not bound <= CONE_TOL:
        raise InconclusiveAtTolerance(
            f"spanning-cone LP without a certificate: {res.message}")
    measure = np.zeros(fs.points)
    measure[support] = mu
    zero = " (the cone is {0})" if bound < 0 else ""
    raise ConeDoesNotSpan(
        f"pointwise-nonnegative cone does not span the space{zero}: a separating measure "
        f"bounds the least value of sum-one positives by {bound:.3g} <= tol {CONE_TOL:g}",
        certificate=measure, bound=bound)


@dataclass
class PointVerdict:
    point_class: tuple
    sup_value: float
    status: str  # "loose" | "essential" | "inconclusive"


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
    wall-clock time of the spanning-cone LP and of each point test."""
    stats = stats if stats is not None else StageTimes()
    with stats.stage("spanning-cone LP"):
        _require_spanning_functions(fs)
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

    # the point LPs run over the real part X_r, whose values at the classes
    # they read; a real-valued basis is already a basis of X_r
    rb = fs.basis if fs.is_real else fs.real_basis()
    vals = rb[:, [c[0] for c in classes]].T.real  # (n_classes, dim X_r)
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
                sup, status = _point_sup(vals, idx, others, tol)
                timed.detail = status
            verdicts.append(PointVerdict(point_class=classes[idx], sup_value=sup,
                                         status=status))
            if status == "inconclusive":
                raise InconclusiveAtTolerance(
                    f"point class {classes[idx]} marginal: sup = {sup:.9f}")
            if status == "loose":
                active.remove(idx)
                changed = True
                break
            essential.add(idx)
    return BoundaryResult(classes=classes, kept=active, point_map=point_map,
                          verdicts=verdicts)


def _point_sup(vals, idx, others, tol):
    """sup{|f(idx)| : f in X, max over others |f| <= 1}, by one exact LP.

    ``vals`` holds, for each class, the values of a real basis of the real
    part X_r; the LP maximizes g(idx) over g in X_r with |g(o)| <= 1 (one
    two-sided row -1 <= vals[o] g <= 1 per other class).  That is the sup
    over X: X is conjugation-closed, so for f in X and theta = arg f(idx)
    the function g = Re(e^(-i theta) f) lies in X_r, with |g| <= |f|
    everywhere and g(idx) = |f(idx)|; and the ball is invariant under
    g -> -g, so one objective serves both signs.  The LP goes to
    :func:`scipy.optimize.milp` with no integer variables, which calls
    HiGHS with far less per-call overhead than ``linprog``.  f = 0 is
    feasible in every LP here, so an "infeasible" status (HiGHS reports
    some unbounded LPs that way when presolve is on) is read as unbounded;
    any other failed LP makes the verdict inconclusive."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(c=-vals[idx], constraints=LinearConstraint(vals[others], -1.0, 1.0),
               bounds=Bounds(-np.inf, np.inf))
    if res.status in (2, 3):
        return np.inf, "essential"
    if not res.success:
        return np.nan, "inconclusive"
    sup = -res.fun
    if sup <= 1.0 + tol:
        return sup, "loose"
    if sup > 1.0 + max(tol, DECISION_BAND):
        return sup, "essential"
    return sup, "inconclusive"


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
