"""Output checks, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  Checks recompute what they need with plain numpy from the inputs
the benchmark generated.  They test properties a correct answer must have;
they never compare against stored output.  The one thing taken from the
program is the coordinate convention of returned coefficients (the
Hermitian basis a witness is expressed in), and ``EnvelopeData`` first
checks that this basis lies in the space and is orthonormal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ncshilov import matcore, unitize

# Tolerances of the properties checked.  They are the ones the acceptance
# criteria and the program's documented contracts use.
CB_TOL = 1e-6            # criterion 3: cb bound and sampled discrepancy
PSD_TOL = 1e-6           # a witness or shifted element is PSD within this
NORMING_RTOL = 1e-9      # max over the boundary equals max over all points
COORD_TOL = 1e-9         # a returned basis lies in the space


def _herm(m):
    return 0.5 * (m + m.conj().T)


def min_eig(m) -> float:
    return float(np.linalg.eigvalsh(_herm(m))[0])


def opnorm(m) -> float:
    return float(np.linalg.norm(m, 2))


def psd_sqrt(m):
    w, u = np.linalg.eigh(_herm(m))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def amplify(coeffs, basis):
    c = np.asarray(coeffs, dtype=np.complex128)
    k, n = c.shape[0], basis.shape[1]
    return np.einsum("ijt,tab->iajb", c, basis).reshape(k * n, k * n)


def _span_residual(basis, m) -> float:
    flat = basis.reshape(basis.shape[0], -1).T
    x = np.linalg.lstsq(flat, m.reshape(-1), rcond=None)[0]
    return float(np.linalg.norm(flat @ x - m.reshape(-1)))


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------


def check_envelope_report(code, text, a) -> list[str]:
    """A planted loose space whose envelope is M_a."""
    if code != 0:
        return [f"exit code {code}"]
    env = json.loads(text)["envelope"]
    problems = []
    if env["abstract_blocks"] != [a]:
        problems.append(f"abstract_blocks {env['abstract_blocks']} != [{a}]")
    emb = env["embedding"]
    if not emb["cb_bound"] <= 1.0 + CB_TOL:
        problems.append(f"cb_bound {emb['cb_bound']!r} > 1 + {CB_TOL}")
    if not emb["sampled_max_discrepancy"] <= CB_TOL:
        problems.append(f"sampled discrepancy {emb['sampled_max_discrepancy']!r} > {CB_TOL}")
    return problems


def check_boundary_report(code, text, generators, seed) -> list[str]:
    """LP route and matrix route agree, and the reported boundary is
    norming for random real and complex combinations of the generators."""
    if code != 0:
        return [f"exit code {code}"]
    rep = json.loads(text)["boundary"]
    problems = []
    cross = rep["diagonal_crosscheck"]
    points = sorted(p for cls in rep["boundary_points"] for p in cls)
    if not cross["matches"]:
        problems.append("diagonal cross-check reports a mismatch")
    if cross["matrix_retained_points"] != points:
        problems.append(f"matrix route keeps {cross['matrix_retained_points']}, "
                        f"boundary is {points}")
    if not points:
        return problems + ["empty boundary"]
    gens = np.asarray(generators, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    coeffs = np.concatenate([rng.standard_normal((8, gens.shape[0])),
                             rng.standard_normal((8, gens.shape[0]))
                             + 1j * rng.standard_normal((8, gens.shape[0]))])
    vals = np.abs(coeffs @ gens)
    on_all = vals.max(axis=1)
    on_boundary = vals[:, points].max(axis=1)
    worst = float(np.max((on_all - on_boundary) / on_all))
    if worst > NORMING_RTOL:
        problems.append(f"boundary not norming: relative shortfall {worst:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Unitization queries
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeData:
    """What the checks need of one envelope, in compressed coordinates."""

    basis: np.ndarray       # the compressed basis element coordinates refer to
    hb: np.ndarray          # Hermitian basis cone witnesses are expressed in
    space_hb: np.ndarray    # Hermitian basis of env.compressed_space()
    n: int

    @classmethod
    def of(cls, env):
        basis = np.asarray(env.compressed_basis)
        hb = matcore.hermitian_part_basis(basis)
        space_hb = env.compressed_space().hermitian_basis()
        for name, stack in (("witness basis", hb), ("space basis", space_hb)):
            gram = np.einsum("tab,sab->ts", stack.conj(), stack).real
            if np.abs(gram - np.eye(len(stack))).max() > COORD_TOL:
                raise ValueError(f"{name} is not orthonormal")
            for h in stack:
                if (np.abs(h - h.conj().T).max() > COORD_TOL
                        or _span_residual(basis, h) > COORD_TOL):
                    raise ValueError(f"{name} leaves the selfadjoint part of the space")
        return cls(basis=basis, hb=hb, space_hb=space_hb, n=env.envelope_dim)

    def parts(self, elem):
        """(v, A) of a unitized element, realized by the benchmark."""
        return amplify(elem.v_coords, self.basis), _herm(np.asarray(elem.scalar_part))


def check_x1(verdict, data: EnvelopeData, elem) -> list[str]:
    """X1 membership is positivity of v + A ⊗ 1."""
    v, a = data.parts(elem)
    m = v + np.kron(a, np.eye(data.n))
    lam = min_eig(m)
    scale = max(1.0, opnorm(m))
    if verdict.member == unitize.MEMBER_YES:
        return [] if lam >= -1e-9 * scale else [f"X1 Yes but min eigenvalue {lam:.3e}"]
    if verdict.member == unitize.MEMBER_NO:
        x = np.asarray(verdict.certificate.get("witness_vector"))
        if lam >= 0:
            return [f"X1 No but min eigenvalue {lam:.3e}"]
        if x.shape != (m.shape[0],) or float(np.real(x.conj() @ m @ x)) >= 0:
            return ["X1 No without a negative vector"]
        return []
    return [f"X1 verdict {verdict.member}"]


def check_xplus(verdict, data: EnvelopeData, elem, expected=None) -> list[str]:
    """Karn (Xplus) membership: the planted answer ``expected`` (when the
    element has one), and a Yes witness re-verified at every eps or a No
    certificate re-checked against a Karn program built here from
    (v, A, eps, delta)."""
    if verdict.member == unitize.MEMBER_INCONCLUSIVE:
        return [f"inconclusive: {verdict.certificate.get('reason', '')}"]
    if expected is not None and verdict.member != expected:
        return [f"planted answer {expected}, answered {verdict.member}"]
    v, a = data.parts(elem)
    k = elem.level
    delta = verdict.delta
    cert = verdict.certificate
    if verdict.member == unitize.MEMBER_YES:
        if min_eig(a) < -1e-7:
            return ["Yes with an indefinite scalar part"]
        if cert.get("u_zero"):
            return [] if min_eig(v) >= -PSD_TOL else ["u = 0 witness but v is not PSD"]
        problems = []
        wit = cert.get("witness_u", {})
        for eps in verdict.eps_schedule_used:
            if eps not in wit:
                problems.append(f"no witness at eps {eps}")
                continue
            u = amplify(wit[eps], data.hb)
            if np.abs(u - u.conj().T).max() > COORD_TOL * max(1.0, opnorm(u)):
                problems.append(f"witness at eps {eps} not selfadjoint")
            if min_eig(u) < -PSD_TOL:
                problems.append(f"witness at eps {eps} not PSD")
            if opnorm(u) >= 1.0 - delta / 2:
                problems.append(f"witness at eps {eps} has norm {opnorm(u):.6f}")
            r = np.kron(psd_sqrt(a + eps * np.eye(k)), np.eye(data.n))
            total = v + r @ u @ r
            if min_eig(total) < -PSD_TOL * max(1.0, opnorm(total)):
                problems.append(f"v + R u R not PSD at eps {eps}")
        return problems
    if verdict.member != unitize.MEMBER_NO:
        return [f"Xplus verdict {verdict.member}"]
    if "scalar_part_min_eig" in cert:
        x = np.asarray(cert.get("witness_vector"))
        if x.shape != (k,) or float(np.real(x.conj() @ a @ x)) >= -1e-9 * float(np.real(x.conj() @ x)):
            return ["No on the scalar part without a negative vector"]
        return []
    return _check_karn_separation(cert, v, a, k, data, delta)


def _level_herm_basis(hb, k):
    """HS-orthonormal basis of the selfadjoint part of M_k(X)."""
    out = []
    for i in range(k):
        for j in range(i, k):
            e = np.zeros((k, k), dtype=np.complex128)
            if i == j:
                e[i, i] = 1.0
                out.extend(np.kron(e, h) for h in hb)
                continue
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            out.extend(np.kron(e, h) for h in hb)
            f = np.zeros((k, k), dtype=np.complex128)
            f[i, j], f[j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            out.extend(np.kron(f, h) for h in hb)
    return np.asarray(out)


def _check_karn_separation(cert, v, a, k, data, delta) -> list[str]:
    """The Karn program at eps: U in the selfadjoint part of M_k(X), U >= 0,
    S1 = (1 - delta) - U >= 0, S2 = v + R U R >= 0.  A functional
    phi = (P_U, P_1, P_2) pairs with an affine point as c + <G, U> with
    c = (1 - delta) tr P_1 + <P_2, v> and G = P_U - P_1 + R P_2 R.  Any
    feasible point has tr U, tr S1 <= kn and tr S2 <= tr+ v + ||R||^2 kn, so
    phi proves infeasibility when c - ||proj G|| sqrt(kn) exceeds what the
    positive parts of the P_i can gain there."""
    eps = cert.get("eps")
    blocks = cert.get("dual_witness")
    kn = k * data.n
    if eps is None or blocks is None or len(blocks) != 3:
        return ["No without a separating functional"]
    pu, p1, p2 = (_herm(np.asarray(b, dtype=np.complex128)) for b in blocks)
    if any(p.shape != (kn, kn) for p in (pu, p1, p2)):
        return ["separating functional has the wrong shape"]
    r = np.kron(psd_sqrt(a + eps * np.eye(k)), np.eye(kn // k))
    c = (1.0 - delta) * float(np.trace(p1).real) + float(np.real(np.vdot(p2, v)))
    g = pu - p1 + r @ p2 @ r
    lb = _level_herm_basis(data.hb, k)
    proj = float(np.linalg.norm(np.einsum("bxy,xy->b", lb.conj(), g).real))
    gain = [max(0.0, float(np.linalg.eigvalsh(p)[-1])) for p in (pu, p1, p2)]
    tr_s2 = max(0.0, float(np.trace(v).real)) + opnorm(r) ** 2 * kn
    slack = c - proj * np.sqrt(kn) - kn * (gain[0] + gain[1]) - gain[2] * tr_s2
    if slack > 0:
        return []
    return [f"separating functional fails the re-check at eps {eps} "
            f"(c = {c:.3e}, slack {slack:.3e})"]


def check_xplus_in_x1(xplus, x1) -> list[str]:
    """Karn-Yes implies X1-Yes."""
    if xplus.member == unitize.MEMBER_YES and x1.member != unitize.MEMBER_YES:
        return ["Xplus Yes but X1 not Yes"]
    return []


def check_distance(result, data: EnvelopeData) -> list[str]:
    """d is the norm of 1 - sum c_t h_t, recomputed from the coefficients."""
    d, coeffs = result
    x = np.einsum("t,tab->ab", np.asarray(coeffs, dtype=float), data.space_hb)
    again = opnorm(np.eye(data.n) - x)
    if abs(again - d) > 1e-9 * max(1.0, d):
        return [f"reported d {d!r} but the coefficients give {again!r}"]
    return []


def check_domination(dom, distance, data: EnvelopeData) -> list[str]:
    """A witness w has w - 1 >= 0; d < 1 exactly when one is found, and
    then d <= 1 - 1/||w||."""
    d = distance[0]
    if dom.inconclusive:
        return [f"domination inconclusive: {dom.reason}"]
    if not dom.found:
        return [] if d >= 1.0 - 1e-6 else [f"no dominating element but d = {d:.9f} < 1"]
    if dom.coeffs is None:
        return ["found without a witness"]
    w = np.einsum("t,tab->ab", np.asarray(dom.coeffs, dtype=float), data.space_hb)
    problems = []
    if min_eig(w - np.eye(data.n)) < -PSD_TOL:
        problems.append("dominating witness w has w - 1 not PSD")
    if not d < 1.0:
        problems.append(f"dominating element found but d = {d:.9f}")
    elif d > 1.0 - 1.0 / opnorm(w) + 1e-6:
        problems.append(f"d = {d:.9f} > 1 - 1/||w|| = {1.0 - 1.0 / opnorm(w):.9f}")
    return problems
