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
back Inconclusive rather than guessed.  Distance-to-unit and the
dominating-element predicate give the order-unit dichotomy: exactly one of
d(X, 1) = 1 or "some v in X dominates 1" holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ncshilov import conesolver, envelope as envelope_mod, matcore
from ncshilov.conesolver import ConicProgram, minimize_opnorm, solve_feasibility
from ncshilov.errors import ShapeMismatch
from ncshilov.matcore import (
    amplify,
    herm_to_rvec,
    hermitize,
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


def realize(elem: UnitizedElement, basis, unit) -> np.ndarray:
    """Concrete matrix of v + A.1 over a given basis and unit."""
    v = amplify(elem.v_coords, basis)
    return v + np.kron(elem.scalar_part, unit)


def is_selfadjoint(elem: UnitizedElement, basis, unit, tol: float = 1e-9) -> bool:
    m = realize(elem, basis, unit)
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
    basis = env.compressed_basis
    unit = env.unit()
    if not is_selfadjoint(elem, basis, unit):
        raise ShapeMismatch("element is not selfadjoint")
    m = hermitize(realize(elem, basis, unit), rtol=1e-9)
    chk = psd_check(m, tol=tol)
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

    No immediately when A has an eigenvalue below -tol; otherwise one
    feasibility solve per scheduled eps for u in M_k(X) with 0 <= u <=
    (1 - delta) and v + (A + eps)^(1/2) u (A + eps)^(1/2) >= 0.  Yes needs
    every scheduled eps feasible (witnesses re-verified) and v + A ⊗ 1 >= 0,
    the limit of v + (A + eps) ⊗ 1 >= 0, which every eps > 0 implies; No
    needs a dual certificate at some eps, or a vector on which v + A ⊗ 1
    is negative; Marginal solves surface as Inconclusive."""
    eps_schedule = tuple(eps_schedule)
    if not eps_schedule or any(e <= 0 for e in eps_schedule):
        raise ShapeMismatch("eps schedule must be positive")
    if sorted(eps_schedule, reverse=True) != list(eps_schedule):
        raise ShapeMismatch("eps schedule must decrease")
    if not (0 < delta <= 1e-2):
        raise ShapeMismatch("delta must lie in (0, 1e-2]")
    basis = env.compressed_basis
    unit = env.unit()
    if not is_selfadjoint(elem, basis, unit):
        raise ShapeMismatch("element is not selfadjoint")
    k = elem.level
    a = hermitize(elem.scalar_part, rtol=1e-9)
    chk_a = psd_check(a, tol=tol)
    if not chk_a.positive:
        return ConeVerdict(member=MEMBER_NO,
                           certificate={"scalar_part_min_eig": chk_a.min_eig,
                                        "witness_vector": chk_a.witness},
                           eps_schedule_used=eps_schedule, delta=delta, tol=tol)
    v = amplify(elem.v_coords, basis)
    vchk = psd_check(hermitize(v, rtol=1e-8), tol=tol)
    witnesses = {}
    if vchk.positive:
        # u = 0 certifies every eps at once
        for eps in eps_schedule:
            witnesses[eps] = np.zeros((k, k, env.source.dim), dtype=np.complex128)
        return ConeVerdict(member=MEMBER_YES,
                           certificate={"witness_u": witnesses, "u_zero": True},
                           eps_schedule_used=eps_schedule, delta=delta, tol=tol)

    hb = matcore.hermitian_part_basis(basis)
    n = env.envelope_dim
    fixed = _karn_fixed_constraints(hb, n, k, delta)
    for eps in eps_schedule:
        root = _psd_sqrt(a + eps * np.eye(k))
        big_root = np.kron(root, np.eye(n))
        out = solve_feasibility(_karn_program(fixed, k * n, v, big_root), tol=min(tol, 1e-7))
        if out.status == conesolver.FEASIBLE:
            u = out.primal_point[0]
            coeffs = _herm_coeffs(hb, u, k, n)
            ok, detail = _verify_karn_witness(hb, coeffs, v, big_root, delta, tol, k)
            if not ok:
                return ConeVerdict(member=MEMBER_INCONCLUSIVE,
                                   certificate={"eps": eps, "reason": detail},
                                   eps_schedule_used=eps_schedule, delta=delta, tol=tol)
            witnesses[eps] = coeffs
        elif out.status == conesolver.INFEASIBLE:
            return ConeVerdict(member=MEMBER_NO,
                               certificate={"eps": eps,
                                            "dual_witness": out.dual_witness,
                                            "margin": out.witness_margin},
                               eps_schedule_used=eps_schedule, delta=delta, tol=tol)
        else:
            return ConeVerdict(member=MEMBER_INCONCLUSIVE,
                               certificate={"eps": eps, "reason": out.diagnostics},
                               eps_schedule_used=eps_schedule, delta=delta, tol=tol)
    # the schedule stops at a positive eps, so an element just outside the
    # cone can be feasible at every scheduled eps
    limit = psd_check(hermitize(v + np.kron(a, unit), rtol=1e-8), tol=tol)
    if not limit.positive:
        return ConeVerdict(member=MEMBER_NO,
                           certificate={"limit_min_eig": limit.min_eig,
                                        "witness_vector": limit.witness},
                           eps_schedule_used=eps_schedule, delta=delta, tol=tol)
    return ConeVerdict(member=MEMBER_YES, certificate={"witness_u": witnesses},
                       eps_schedule_used=eps_schedule, delta=delta, tol=tol)


def _psd_sqrt(m):
    w, u = matcore.herm_eig(hermitize(m, rtol=1e-9))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _karn_fixed_constraints(hb, n, k, delta):
    """The eps-independent rows and right-hand sides of the Karn program
    over the blocks [U, S1, S2], built once per query: U pinned to M_k(X)
    (its coordinates in the kernel of the selfadjoint part of M_k(X)
    vanish), and S1 + U = (1 - delta) I."""
    kn = k * n
    # kron(E, h) over the Hermitian units E of M_k and h in hb: a real-ON
    # basis of the selfadjoint part of M_k(X)
    level = np.einsum("sij,tab->stiajb", rvec_to_herm(np.eye(k * k), k), hb)
    pins = matcore.null_space(herm_to_rvec(level.reshape(-1, kn, kn)))
    eye = np.eye(kn * kn)
    rows = np.block([[pins, np.zeros((pins.shape[0], 2 * kn * kn))],
                     [eye, eye, np.zeros_like(eye)]])
    rhs = np.concatenate([np.zeros(pins.shape[0]), herm_to_rvec((1.0 - delta) * np.eye(kn))])
    return rows, rhs


def _karn_program(fixed, kn, v, big_root):
    """Feasibility program for the witness u at one eps.

    Blocks: U (kn, the candidate), S1 = (1 - delta) - U, S2 = v + R U R;
    ``fixed`` holds the rows of :func:`_karn_fixed_constraints`.  Row j of
    S2 - R U R = v pairs with the unit matrix E_j of the coordinates, so
    its U part is the vectorized transport R E_j R."""
    rows, rhs = fixed
    eye = np.eye(kn * kn)
    transport = herm_to_rvec(hermitize(big_root @ rvec_to_herm(eye, kn) @ big_root, rtol=1e-8))
    rows = np.block([[rows], [-transport, np.zeros_like(eye), eye]])
    rhs = np.concatenate([rhs, herm_to_rvec(hermitize(v, rtol=1e-8))])
    return ConicProgram([kn, kn, kn], rows, rhs)


def _herm_coeffs(hb, u, k, n):
    """Real coefficients of a level-k Hermitian element over the level
    Hermitian basis, folded back to (k, k, d) coordinates over hb."""
    d = hb.shape[0]
    coeffs = np.zeros((k, k, d), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            block = u[i * n : (i + 1) * n, j * n : (j + 1) * n]
            coeffs[i, j] = np.einsum("tab,ab->t", hb.conj(), block)
    return coeffs


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
    u' = C u C* with C = (A + eps_to)^(-1/2) (A + eps_from)^(1/2), which
    stays in the cone with norm <= ||u|| and satisfies the larger-eps
    inequality with the same shifted element."""
    if eps_to < eps_from:
        raise ShapeMismatch("can only transport toward larger eps")
    k = coeffs.shape[0]
    root_from = _psd_sqrt(np.asarray(a) + eps_from * np.eye(k))
    root_to_inv = np.linalg.inv(_psd_sqrt(np.asarray(a) + eps_to * np.eye(k)))
    c = root_to_inv @ root_from
    return np.einsum("ip,pqt,jq->ijt", c, coeffs, c.conj())


# ---------------------------------------------------------------------------
# Distance to the unit and dominating elements
# ---------------------------------------------------------------------------


def _resolve_unit(x: MatrixSpace, unit: str, env=None):
    if unit == UNIT_AMBIENT:
        return np.eye(x.ambient_dim, dtype=np.complex128), x
    if unit == UNIT_ENVELOPE:
        if env is None:
            raise ShapeMismatch("envelope unit requested but no envelope given")
        return env.unit(), env.compressed_space()
    raise ShapeMismatch(f"unknown unit mode {unit!r}")


def distance_to_unit(x: MatrixSpace, unit: str = UNIT_AMBIENT, env=None,
                     tol: float = 1e-8):
    """min over selfadjoint x in X of ||unit - x|| with the minimizing
    coordinates (over the Hermitian basis).

    The minimization runs over the selfadjoint part only; for a Hermitian
    target this loses nothing (averaging an optimizer with its adjoint
    never increases the norm)."""
    unit_matrix, space = _resolve_unit(x, unit, env)
    hb = space.hermitian_basis()
    value, coeffs = minimize_opnorm(unit_matrix, hb, tol=tol, real_coeffs=True)
    return float(value), coeffs.real


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

    One feasibility solve: S = v - unit over the shifted selfadjoint span.
    The solve's point lies deep inside the cone, so a found v is scaled
    down to v / lambda_min(v), which just dominates the unit (the unit is
    the identity of the space's coordinates in both unit modes); Found
    witnesses are re-verified PSD-dominant."""
    unit_matrix, space = _resolve_unit(x, unit, env)
    n = space.ambient_dim
    hb = space.hermitian_basis()
    rows = matcore.null_space(herm_to_rvec(hb))
    prog = ConicProgram([n], rows, -rows @ herm_to_rvec(unit_matrix))
    out = solve_feasibility(prog, tol=min(tol, 1e-7))
    if out.status == conesolver.FEASIBLE:
        s = out.primal_point[0]
        v = s + unit_matrix
        coeffs = np.einsum("tab,ab->t", hb.conj(), v).real
        v_fit = np.einsum("t,tab->ab", coeffs, hb)
        lowest = float(np.linalg.eigvalsh(v_fit)[0])
        if lowest > 1.0:
            coeffs, v_fit = coeffs / lowest, v_fit / lowest
        chk = psd_check(hermitize(v_fit - unit_matrix, rtol=1e-6), tol=10 * tol)
        if chk.positive and matcore.span_residual(hb, v) < 1e-6:
            return DominationResult(found=True, coeffs=coeffs, min_eig=chk.min_eig)
        return DominationResult(found=False, inconclusive=True,
                                reason="candidate failed re-verification")
    if out.status == conesolver.INFEASIBLE:
        return DominationResult(found=False, min_eig=None)
    return DominationResult(found=False, inconclusive=True, reason=out.diagnostics)


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
