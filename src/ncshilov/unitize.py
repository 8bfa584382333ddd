"""Unitizations of a nonunital ordered matrix space and their cone queries.

Inside the C*-envelope, X1 is the span of the embedded copy of X and the
envelope unit (the maximal-cone unitization: its positives are simply the
PSD elements).  The minimal-cone unitization Xplus is realized through its
membership predicate only: a selfadjoint pair (v, A) at matrix level k is
positive iff A >= 0 and for every scheduled eps there is a positive
u in M_k(X) of norm < 1 with

    v + (A + eps)^(1/2) u (A + eps)^(1/2)  >=  0.

The open condition ||u|| < 1 is realized by a strictness margin delta and a
decreasing eps schedule; verdicts record both, and razor-thin cases come
back Inconclusive rather than guessed.  The condition is monotone in eps: a
witness at the smallest scheduled eps carries over to every larger one
(:func:`transport_witness`), so one solve, at the smallest eps, decides
the whole schedule.  Distance-to-unit and the dominating-element
predicate give the order-unit dichotomy: exactly one of d(X, 1) = 1 or
"some v in X dominates 1" holds.

The Karn condition at the smallest scheduled eps, the domination question
and the distance to the unit are each one dual-form margin solve
(:class:`conesolver.MarginRows`): maximize lambda over the linear matrix
inequality in free coordinates less lambda I.  Each answer's certificate
comes from one side of that solve.  Yes (a witness u, a dominating v)
comes from the dual side: the coordinates of an iterate with lambda > 0,
re-verified as matrices.  No (a separating functional, a PSD matrix
orthogonal to X_sa) comes from the primal side: the trace-one primal point
X, with the bound that makes it a proof written out and checked afresh.
The distance takes its attained value from the dual side and its lower
bound from the primal side (:func:`conesolver.minimize_opnorm`).

The Karn program is posed in w = R u R, R = (A + eps)^(1/2) ⊗ 1, rather
than in u.  R acts on the matrix entries only, so w ranges over the
selfadjoint part of M_k(X) exactly when u does, and the conditions read
w >= 0, (1 - delta) R^2 - w >= 0 and v + w >= 0.  Its rows then depend on
the envelope and the level alone: each envelope keeps them, orthonormalized
once per level, and a query supplies only (0, (1 - delta) R^2, v)
(:func:`_karn_level`).  Certificates are stated for u as before: a Yes
witness is u = R^-1 w R^-1, and a No functional X = (X1, X2, X3) of the
w-program is translated to (R X1 R, R X2 R, X3), which pairs with each
u-point exactly as X pairs with the corresponding w-point
(:func:`_u_functional`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ncshilov import conesolver, envelope as envelope_mod, matcore
from ncshilov.conesolver import minimize_opnorm
from ncshilov.errors import ShapeMismatch
from ncshilov.matcore import (
    amplify,
    hermitize,
    kron_eye,
    op_norm,
    orthonormalize,
    psd_check,
    rvec_to_herm,
)
from ncshilov.stargen import MatrixSpace

MEMBER_YES = "yes"
MEMBER_NO = "no"
MEMBER_INCONCLUSIVE = "inconclusive"

UNIT_ENVELOPE = "envelope"
UNIT_AMBIENT = "ambient"

DEFAULT_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3)
DEFAULT_DELTA = 1e-4


@dataclass
class UnitizedElement:
    """A level-k element v + A.1 of a unitization: coordinates of v over the
    space basis per matrix entry, plus the scalar k x k part A."""

    level: int
    v_coords: np.ndarray  # (k, k, d) complex
    scalar_part: np.ndarray  # (k, k) complex

    def __post_init__(self):
        self.v_coords = np.asarray(self.v_coords, dtype=np.complex128)
        self.scalar_part = np.asarray(self.scalar_part, dtype=np.complex128)
        k = self.level
        if self.v_coords.shape[:2] != (k, k) or self.scalar_part.shape != (k, k):
            raise ShapeMismatch("unitized element shapes do not match its level")


def realize(elem: UnitizedElement, basis) -> np.ndarray:
    """Concrete matrix of v + A ⊗ 1 over a given basis, whose identity is
    the unit."""
    v = amplify(elem.v_coords, basis)
    return v + kron_eye(elem.scalar_part, np.shape(basis)[-1])


def is_selfadjoint(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether a realized element (:func:`realize`) is selfadjoint up to
    ``tol`` relative to its largest entry."""
    return bool(np.abs(m - m.conj().T).max() <= tol * max(1.0, np.abs(m).max()))


@dataclass
class ConeVerdict:
    """Membership decision with its certificate.

    Yes carries either a witness u (coordinates over the space basis, per
    eps) or eigenvalue data; No carries a negative-direction vector or a
    separating functional; eps_schedule_used and delta document how the
    open Karn condition was realized."""

    member: str
    certificate: dict = field(default_factory=dict)
    eps_schedule_used: tuple = ()
    delta: float = 0.0
    tol: float = 0.0


@dataclass
class Unitization:
    """X1 = span{embedded X, unit} inside the envelope (compressed coords)."""

    space: MatrixSpace
    unital: bool  # true when the unit already lies in the embedded copy
    unit_residual: float


def build_x1(env: envelope_mod.EnvelopePresentation) -> Unitization:
    """Span of the embedded copy and the envelope unit.

    Finite-dimensional C*-algebras are unital, so the envelope's own unit
    is adjoined; when it already lies in the embedded copy the unitization
    is flagged unital and equals the embedded space."""
    unit = env.unit()
    embedded = orthonormalize(env.compressed_basis)
    resid = matcore.span_residual(embedded, unit)
    if resid <= 1e-9:
        return Unitization(space=MatrixSpace(ambient_dim=env.envelope_dim,
                                             basis=embedded),
                           unital=True, unit_residual=resid)
    basis = orthonormalize(np.concatenate([embedded, [unit]]))
    return Unitization(space=MatrixSpace(ambient_dim=env.envelope_dim, basis=basis),
                       unital=False, unit_residual=resid)


def x1_cone_member(env: envelope_mod.EnvelopePresentation, elem: UnitizedElement,
                   tol: float = 1e-9) -> ConeVerdict:
    """Membership in the X1 cone: a direct PSD check of the concrete matrix
    built from the embedded copy and the envelope unit."""
    m = realize(elem, env.compressed_basis)
    if not is_selfadjoint(m):
        raise ShapeMismatch("element is not selfadjoint")
    chk = psd_check(hermitize(m, rtol=1e-9), tol=tol)
    if chk.positive:
        return ConeVerdict(member=MEMBER_YES,
                           certificate={"min_eig": chk.min_eig}, tol=tol)
    return ConeVerdict(member=MEMBER_NO,
                       certificate={"min_eig": chk.min_eig,
                                    "witness_vector": chk.witness,
                                    "witness_value": chk.witness_value},
                       tol=tol)


def xplus_cone_member(env: envelope_mod.EnvelopePresentation, elem: UnitizedElement,
                      eps_schedule=DEFAULT_EPS_SCHEDULE, delta: float = DEFAULT_DELTA,
                      tol: float = 1e-7) -> ConeVerdict:
    """Membership in the minimal-cone unitization via the scaled-witness
    formula.

    No immediately when A has an eigenvalue below -tol, Yes with u = 0 when
    v itself is PSD.  Otherwise one dual-form margin solve
    (:func:`_karn_solve`) at the smallest scheduled eps, eps_min, decides
    the whole schedule: the program is feasible at every scheduled eps iff
    it is at eps_min.  The solve is posed in w = R u R, R = (A +
    eps_min)^(1/2) ⊗ 1, on the rows that the envelope keeps for level k
    (:func:`_karn_level`).  Yes needs a witness u read off the dual side of
    that solve and re-verified; each larger scheduled eps gets u carried
    over by :func:`transport_witness` and re-verified at the same delta and
    tol (``witness_u``, one per scheduled eps), and v + A ⊗ 1 >= 0, the
    limit of v + (A + eps) ⊗ 1 >= 0, which every eps > 0 implies.  No
    needs a separating functional phi of the u-program at eps_min, the
    primal point of the w-program translated back (``dual_witness``, with
    its pairing bound c as ``margin``; see :func:`_karn_separation`), or a
    vector on which v + A ⊗ 1 is negative.  A solve that ends with neither
    certificate, or a transported witness that fails its re-verification,
    gives Inconclusive.  Every certificate issued after the solve records
    its ``iterations``."""
    eps_schedule = tuple(eps_schedule)
    if not eps_schedule or any(e <= 0 for e in eps_schedule):
        raise ShapeMismatch("eps schedule must be positive")
    if sorted(eps_schedule, reverse=True) != list(eps_schedule):
        raise ShapeMismatch("eps schedule must decrease")
    if not (0 < delta <= 1e-2):
        raise ShapeMismatch("delta must lie in (0, 1e-2]")
    n = env.envelope_dim
    v = amplify(elem.v_coords, env.compressed_basis)
    if not is_selfadjoint(v + kron_eye(elem.scalar_part, n)):
        raise ShapeMismatch("element is not selfadjoint")

    def verdict(member, certificate):
        return ConeVerdict(member=member, certificate=certificate,
                           eps_schedule_used=eps_schedule, delta=delta, tol=tol)

    k = elem.level
    a = hermitize(elem.scalar_part, rtol=1e-9)
    chk_a = psd_check(a, tol=tol)
    if not chk_a.positive:
        return verdict(MEMBER_NO, {"scalar_part_min_eig": chk_a.min_eig,
                                   "witness_vector": chk_a.witness})
    v_sa = hermitize(v, rtol=1e-8)
    if np.linalg.eigvalsh(v_sa)[0] >= -tol:
        # u = 0 certifies every eps at once
        zero = np.zeros((k, k, env.source.dim), dtype=np.complex128)
        return verdict(MEMBER_YES, {"witness_u": dict.fromkeys(eps_schedule, zero),
                                    "u_zero": True})

    prog = _karn_level(env, k)
    eps_min = eps_schedule[-1]
    roots = _shifted_roots(a)
    sol = _karn_solve(prog, v_sa, *roots(eps_min), delta, tol)
    solved = {"iterations": sol.iterations}
    if sol.stopped is None:
        reason = (f"no certificate: Karn solve {sol.status} after {sol.iterations} "
                  f"iterations (gap {sol.gap:.1e})")
        return verdict(MEMBER_INCONCLUSIVE, {"eps": eps_min, "reason": reason, **solved})
    member, cert = sol.stopped
    if member == MEMBER_NO:
        return verdict(MEMBER_NO, {"eps": eps_min, **cert, **solved})
    witnesses = {}
    for eps in eps_schedule:
        if eps == eps_min:
            witnesses[eps] = cert
            continue
        moved = transport_witness(cert, a, eps_min, eps, prog.hb)
        ok, why = _verify_karn_witness(prog.hb, moved, v_sa, kron_eye(roots(eps)[0], n),
                                       delta, tol, k)
        if not ok:
            reason = f"witness transported from eps {eps_min:g} fails at eps {eps:g}: {why}"
            return verdict(MEMBER_INCONCLUSIVE, {"eps": eps, "reason": reason, **solved})
        witnesses[eps] = moved
    # the schedule stops at a positive eps, so an element just outside the
    # cone can be feasible at every scheduled eps
    limit = psd_check(hermitize(v + kron_eye(a, n), rtol=1e-8), tol=tol)
    if not limit.positive:
        return verdict(MEMBER_NO, {"limit_min_eig": limit.min_eig,
                                   "witness_vector": limit.witness, **solved})
    return verdict(MEMBER_YES, {"witness_u": witnesses, **solved})


def _psd_sqrt(m):
    w, u = matcore.herm_eig(hermitize(m, rtol=1e-9))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _shifted_roots(a):
    """``roots(eps)`` = ((A + eps)^(1/2), its pseudo-inverse) for the
    Hermitian scalar part A, every eps from one eigendecomposition.
    Eigenvalues of A + eps below zero (A is PSD only up to tol) count as
    zero, as in :func:`_psd_sqrt`."""
    lam, vecs = np.linalg.eigh(a)
    vecs_h = vecs.conj().T

    def roots(eps):
        r = np.sqrt(np.clip(lam + eps, 0.0, None))
        r_inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
        return (vecs * r) @ vecs_h, (vecs * r_inv) @ vecs_h

    return roots


def _level_basis(hb, k):
    """The Hermitian units E_s of M_k and the real-ON basis kron(E_s, h_t) of
    the selfadjoint part of M_k(X), flattened s-major."""
    units = rvec_to_herm(np.eye(k * k), k)
    kn = k * hb.shape[1]
    return units, np.einsum("sij,tab->stiajb", units, hb).reshape(-1, kn, kn)


@dataclass(frozen=True)
class KarnLevel:
    """The level-k Karn program of one envelope, less its query: the
    Hermitian-part basis ``hb`` of the embedded copy, the Hermitian units
    of M_k and the level basis H_i (:func:`_level_basis`), and the margin
    rows of :func:`_karn_rows`, orthonormalized once
    (:class:`conesolver.MarginRows`)."""

    hb: np.ndarray
    units: np.ndarray
    level: np.ndarray
    rows: conesolver.MarginRows


def _karn_level(env: envelope_mod.EnvelopePresentation, k: int) -> KarnLevel:
    """The :class:`KarnLevel` of ``env`` at level k, built on the first
    query that needs it and kept in ``env.query_cache``."""
    cache = env.query_cache
    if "hb" not in cache:
        cache["hb"] = matcore.hermitian_part_basis(env.compressed_basis)
    key = ("karn", k)
    if key not in cache:
        units, level = _level_basis(cache["hb"], k)
        cache[key] = KarnLevel(cache["hb"], units, level,
                               conesolver.MarginRows(_karn_rows(level)))
    return cache[key]


def _karn_solve(prog: KarnLevel, v, root, root_inv, delta, tol):
    """Karn's condition at one eps as the dual-form margin program of
    :class:`conesolver.MarginRows`, posed in w = R u R with
    R = root ⊗ 1, root = (A + eps)^(1/2) and root_inv its (pseudo-)inverse
    (:func:`_shifted_roots`): maximize lambda subject to
    (W, (1 - delta) R^2 - W, v + W) - lambda I >= 0 blockwise, with
    W = sum_i w_i H_i over the level basis H_i.  Since
    R (c ⊗ x) R = (root c root) ⊗ x, w ranges over the selfadjoint
    part of M_k(X) exactly when u does, and the conditions 0 <= u <=
    (1 - delta), v + R u R >= 0 become these three; only F0 =
    (0, (1 - delta) R^2, v) (:func:`_karn_f0`) depends on the query.

    Yes comes from the dual side: an iterate with lambda > 0 gives w, and
    u = (root^-1 ⊗ 1) w (root^-1 ⊗ 1), whose (k, k, d) coordinates over
    ``hb`` must pass :func:`_verify_karn_witness`.  No comes from the
    primal side: the primal point, translated to the u-program
    (:func:`_u_functional`), must pass :func:`_karn_separation`.  The
    solve's ``stopped`` is (MEMBER_YES, coordinates) or (MEMBER_NO,
    certificate)."""
    k, d, n = prog.units.shape[1], prog.hb.shape[0], prog.hb.shape[1]
    big_root = kron_eye(root, n)
    root_norm = op_norm(root)  # ||R|| = ||root ⊗ 1|| = ||root||, a k x k SVD

    def stop(w, lam, x):
        if lam > 0:
            w_coeffs = np.einsum("sij,st->ijt", prog.units, w.reshape(k * k, d))
            coeffs = np.einsum("ip,pqt,jq->ijt", root_inv, w_coeffs, root_inv.conj())
            if _verify_karn_witness(prog.hb, coeffs, v, big_root, delta, tol, k)[0]:
                return MEMBER_YES, coeffs
        cert = _karn_separation(_u_functional(x, big_root), v, big_root, root_norm,
                                prog.level, delta)
        return None if cert is None else (MEMBER_NO, cert)

    return prog.rows.solve(_karn_f0(v, big_root, delta), stop)


def _karn_rows(level):
    """The rows (H_i, -H_i, H_i) of the Karn program in w, one per element
    H_i of the level basis: F0 + sum_i w_i F_i is (W, (1 - delta) R^2 - W,
    v + W) for W = sum_i w_i H_i."""
    return [level, -level, level]


def _karn_f0(v, big_root, delta):
    """F0 = (0, (1 - delta) R^2, v) of the Karn program in w, the only part
    that depends on the query."""
    kn = v.shape[0]
    return [np.zeros((kn, kn)), (1.0 - delta) * (big_root @ big_root), v]


def _u_functional(x, big_root):
    """The u-program functional (R X1 R, R X2 R, X3) of a point X = (X1, X2,
    X3) of the w-program.  At corresponding points, W = R U R, it pairs as
    X does:

        <R X1 R, U> + <R X2 R, (1 - delta) - U> + <X3, v + R U R>
          = <X1, W> + <X2, (1 - delta) R^2 - W> + <X3, v + W>,

    and it stays PSD blockwise when X is."""
    x1, x2, x3 = x
    return [big_root @ x1 @ big_root, big_root @ x2 @ big_root, x3]


def _karn_separation(x, v, big_root, root_norm, level, delta):
    """No certificate from a PSD point X = (X_U, X_1, X_2) that pairs with
    the Karn u-program, or None; :func:`_karn_solve` passes the primal
    point of its w-program translated by :func:`_u_functional`, and
    ``root_norm`` = ||R||, which it computes once per solve.

    phi = -X / ||X|| = (P_U, P_1, P_2) pairs with a point (U, (1 - delta) - U,
    v + R U R) as c + <G, U>, where c = (1 - delta) tr P_1 + <P_2, v> =
    -<F0, X> / ||X|| and G = P_U - P_1 + R P_2 R, and only G's part in the
    selfadjoint part of M_k(X) meets U.  A feasible point has HS norm
    ||U||_2 <= sqrt(kn), tr U, tr S1 <= kn and tr S2 <= tr+ v + ||R||^2 kn, while phi
    pairs with it at most by its positive parts, so the program is
    infeasible when

        c > ||proj G|| sqrt(kn) + kn (P_U^+ + P_1^+) + P_2^+ tr S2,

    P^+ the largest eigenvalue of P when positive.  It is accepted when c
    exceeds the right-hand side by more than 1e-9 max(1, |c|), which covers
    the rounding of a re-check, and holds phi as ``dual_witness`` and c as
    ``margin``."""
    kn = level.shape[1]
    nrm = np.sqrt(sum(np.linalg.norm(xv) ** 2 for xv in x))
    pu, p1, p2 = (-xv / nrm for xv in x)
    c = (1.0 - delta) * float(np.trace(p1).real) + float(np.vdot(p2, v).real)
    g = pu - p1 + big_root @ p2 @ big_root
    slack = c - np.linalg.norm(np.einsum("bxy,xy->b", level.conj(), g).real) * np.sqrt(kn)
    if not slack > 0:
        return None
    gain = [max(0.0, float(np.linalg.eigvalsh(p)[-1])) for p in (pu, p1, p2)]
    tr_s2 = max(0.0, float(np.trace(v).real)) + root_norm ** 2 * kn
    if slack - kn * (gain[0] + gain[1]) - gain[2] * tr_s2 > 1e-9 * max(1.0, abs(c)):
        return {"dual_witness": [pu, p1, p2], "margin": c}
    return None


def _verify_karn_witness(hb, coeffs, v, big_root, delta, tol, k):
    """Re-verify a returned witness: u in the cone, norm below 1 - delta/2,
    and the shifted element PSD within 10 tol."""
    u = amplify(coeffs, hb)
    u = hermitize(u, rtol=1e-7)
    chk = psd_check(u, tol=10 * tol)
    if not chk.positive:
        return False, f"witness not PSD (min eig {chk.min_eig:.2e})"
    if op_norm(u) > 1.0 - delta / 2:
        return False, f"witness norm {op_norm(u):.6f} not strictly below one"
    total = hermitize(v + big_root @ u @ big_root, rtol=1e-7)
    chk2 = psd_check(total, tol=10 * tol * max(1.0, op_norm(total)))
    if not chk2.positive:
        return False, f"shifted element not PSD (min eig {chk2.min_eig:.2e})"
    return True, ""


def transport_witness(coeffs, a, eps_from, eps_to, hb):
    """Carry a witness from eps_from to a larger eps_to:
    u' = (C ⊗ 1) u (C ⊗ 1)* with C = (A + eps_to)^(-1/2) (A + eps_from)^(1/2).

    :func:`xplus_cone_member` serves every scheduled eps above the smallest
    this way.  Both factors of C are functions of A, so they commute and
    ||C|| <= 1: u' is PSD, lies in M_k(X) (C acts on the matrix entries
    only) and has ||u'|| <= ||u||.  And R_to (C ⊗ 1) = R_from, with
    R = (A + eps)^(1/2) ⊗ 1, so R_to u' R_to = R_from u R_from: the
    shifted element v + R u R is the same matrix at both eps."""
    if eps_to < eps_from:
        raise ShapeMismatch("can only transport toward larger eps")
    roots = _shifted_roots(hermitize(a, rtol=1e-9))
    c = roots(eps_to)[1] @ roots(eps_from)[0]
    return np.einsum("ip,pqt,jq->ijt", c, coeffs, c.conj())


# ---------------------------------------------------------------------------
# Distance to the unit and dominating elements
# ---------------------------------------------------------------------------


def _resolve_unit(x: MatrixSpace, unit: str, env=None):
    """The unit matrix for the space ``x``: the identity of its ambient
    M_n, or the envelope unit, for which ``x`` must be the envelope copy
    (``env.compressed_space()``, in range(q) coordinates)."""
    if unit == UNIT_AMBIENT:
        return np.eye(x.ambient_dim, dtype=np.complex128)
    if unit == UNIT_ENVELOPE:
        if env is None:
            raise ShapeMismatch("envelope unit requested but no envelope given")
        if x.ambient_dim != env.envelope_dim:
            raise ShapeMismatch(f"envelope unit is {env.envelope_dim} x {env.envelope_dim}, "
                                f"the space is in M_{x.ambient_dim}")
        return env.unit()
    raise ShapeMismatch(f"unknown unit mode {unit!r}")


def distance_to_unit(x: MatrixSpace, unit: str = UNIT_AMBIENT, env=None,
                     tol: float = 1e-8):
    """min over selfadjoint x in X of ||unit - x|| with the minimizing
    coordinates (over the Hermitian basis).

    The minimization runs over the selfadjoint part only; for a Hermitian
    target this loses nothing (averaging an optimizer with its adjoint
    never increases the norm)."""
    unit_matrix = _resolve_unit(x, unit, env)
    hb = x.hermitian_basis()
    value, coeffs = minimize_opnorm(unit_matrix, hb, tol=tol)
    return float(value), coeffs


@dataclass
class DominationResult:
    found: bool
    coeffs: np.ndarray | None = None  # over the Hermitian basis
    min_eig: float | None = None
    inconclusive: bool = False
    reason: str = ""


def dominating_element(x: MatrixSpace, unit: str = UNIT_AMBIENT, env=None,
                       tol: float = 1e-7) -> DominationResult:
    """Find selfadjoint v in X with v >= unit, or report that none exists.

    One dual-form margin solve (:func:`conesolver.solve_dual_margin`) over
    v = sum_t c_t h_t, h_t the Hermitian basis: maximize lambda subject to
    v - unit - lambda I >= 0.  Found comes from the dual side: an iterate
    with lambda > 0 gives v, which is scaled down to v / lambda_min(v), so
    that it just dominates the unit (the unit is the identity of the
    space's coordinates in both unit modes), and re-verified.  Not found
    comes from the primal side: the trace-one primal point X, less its part
    in X_sa, is a matrix W orthogonal to X_sa with tr W > 0, checked
    afresh.  Any v >= unit in X_sa has 0 = <v, W> = tr W + <v - unit, W>,
    so when W >= 0 there is none; when W's eigenvalues reach down to
    -1e-9 tr W, the most accepted, every such v has tr(v - unit) >= 1e9.
    Neither certificate gives Inconclusive."""
    unit_matrix = _resolve_unit(x, unit, env)
    hb = x.hermitian_basis()

    def stop(coeffs, lam, xs):
        if lam > 0:
            v_fit = np.einsum("t,tab->ab", coeffs, hb)
            lowest = float(np.linalg.eigvalsh(v_fit)[0])
            if lowest > 1.0:
                coeffs, v_fit = coeffs / lowest, v_fit / lowest
            chk = psd_check(hermitize(v_fit - unit_matrix, rtol=1e-6), tol=10 * tol)
            if chk.positive:
                return DominationResult(found=True, coeffs=coeffs, min_eig=chk.min_eig)
        if xs is None:
            return None
        w = xs[0] - matcore.project_onto_span(hb, xs[0])
        trace = float(np.trace(w).real)
        if trace > 0 and psd_check(hermitize(w / trace, rtol=1e-6), tol=1e-9).positive:
            return DominationResult(found=False)
        return None

    sol = conesolver.solve_dual_margin([-unit_matrix], [hb], stop)
    if sol.stopped is not None:
        return sol.stopped
    return DominationResult(found=False, inconclusive=True,
                            reason=f"no certificate: domination solve {sol.status} after "
                                   f"{sol.iterations} iterations (gap {sol.gap:.1e})")


def check_envelope_of_unitization(env: envelope_mod.EnvelopePresentation,
                                  seed: int = 0, tol: float = 1e-7) -> dict:
    """Envelope of X1 must be the envelope itself: computing the envelope of
    span{j(X), q} inside the compressed coordinates must eliminate nothing
    and reproduce the abstract blocks."""
    x1 = build_x1(env)
    env1 = envelope_mod.compute_envelope(x1.space, seed=seed, tol=tol)
    same_blocks = env1.abstract_blocks == env.abstract_blocks
    no_elims = env1.eliminations() == 0
    # the two envelope algebras live on the same compressed coordinates and
    # must coincide as subspaces: the identity is the induced *-isomorphism
    worst = 0.0
    if same_blocks and env1.algebra.ambient_dim == env.algebra.ambient_dim:
        for b in env1.algebra.basis:
            worst = max(worst, matcore.span_residual(env.algebra.basis, b))
        for b in env.algebra.basis:
            worst = max(worst, matcore.span_residual(env1.algebra.basis, b))
    else:
        worst = np.inf
    return {
        "x1_unital_flag": x1.unital,
        "x1_dim": x1.space.dim,
        "abstract_blocks_x": env.abstract_blocks,
        "abstract_blocks_x1": env1.abstract_blocks,
        "blocks_equal": same_blocks,
        "no_eliminations": no_elims,
        "algebra_identification_residual": float(worst),
        "trace": env1.trace,
        "passed": bool(same_blocks and no_elims and worst <= 1e-7),
    }
