"""Loose-block elimination: the ordered noncommutative Shilov boundary.

Given a selfadjoint space X with spanning cone, the generated *-algebra B
decomposes into blocks B_i with minimal central projections p_i.  A block
is loose when cutting it changes no norm at any matrix level, i.e. the
compression X -> X(e - p_i) is injective and its inverse is completely
contractive.  Loose blocks are removed one at a time until none remain;
what is left is the C*-envelope with a certified completely isometric
embedding.

B is generated and split once, and every verdict stays valid across
removals except Loose:

* compressing by a central projection e - p is a *-homomorphism of B, so
  C*(X(e - p)) = B(e - p), whose minimal central projections are the
  other p_j; the split after a removal is the old one minus the removed
  block;
* Essential is stable: if y in M_k(X) loses norm under e - p_i, and p_j is
  loose, then X -> X(e - p_j) is completely isometric, so the image of y
  still loses norm under e - p_i - p_j.

So each pass skips the removed blocks and those already found Essential,
and works on X unit (unit = e minus the removed projections) in the
input's coordinates; witness coefficients are over the source basis.

The inverse map splits over the central projection as x = x p + x(e - p)
with orthogonal ranges, so its cb-norm is max(1, cb-norm of the completion
map X(e - p) -> X p); only the completion is tested, against one
irreducible copy of the block (its multiplicity stripped), which keeps
Choi variables small.  A Loose verdict rests on the certified Choi bound
of that test alone, an Essential one on its recomputed witness; the cc
oracle writes either certificate in closed form when it can, and runs
its interior-point solve only for the maps those leave open, so a step
settled in closed form reports 0 iterations.  The
inverse of the final embedding x -> x q is the composition of the
per-step inverses, so the product of max(1, cb_i) over the removed blocks
certifies it; no further solve is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ncshilov import blockdecomp, conesolver, matcore, stargen
from ncshilov.conesolver import CC_NO, CC_YES, LinearMapSpec
from ncshilov.errors import (
    DependentFamily,
    InconclusiveAtTolerance,
    NumericallyAmbiguous,
    RankAmbiguous,
    ShapeMismatch,
)
from ncshilov.matcore import amplify, op_norm, op_norms, orthonormalize, span_residual
from ncshilov.stargen import AlgebraPresentation, MatrixSpace
from ncshilov.timing import StageTimes

LOOSE = "loose"
ESSENTIAL = "essential"
MARGINAL = "marginal"

# An Essential verdict read off a kernel of the compression; the cc
# oracle's routes are in conesolver.
ROUTE_KERNEL = "kernel"

SCAN_DESCENDING_RANK = "descending_rank"
SCAN_ASCENDING_RANK = "ascending_rank"


@dataclass
class LoosenessVerdict:
    """A block's verdict with the certificate data behind it.

    ``cb_estimate`` comes from the cc oracle: on a Loose verdict it is the
    certified upper bound on the completion map's cb-norm, in
    [cb, 1 + tol]; on an Essential dual-witness or gradient-witness
    verdict it is the witness ratio, a lower bound in (1 + tol, cb]; on a
    Marginal one, the last iterate's certified bound, above 1 + tol; None
    on a kernel verdict.  ``residual`` is the block residual of the Choi
    point behind a Loose or Marginal verdict; None on an Essential one,
    whose certificate (a kernel or a witness) does not use a Choi point.
    ``iterations`` is the cc oracle's interior-point iteration count, 0
    when a closed-form certificate settled the map; None on a kernel
    verdict.
    """

    status: str
    block_rank: int
    block_k: int
    reason: str = ""
    cb_estimate: float | None = None
    witness_level: int | None = None
    witness_coeffs: np.ndarray | None = None
    witness_gap: float | None = None
    residual: float | None = None
    iterations: int | None = None
    route: str = ROUTE_KERNEL


@dataclass
class EliminationStep:
    """One recorded decision: which block was examined during which pass,
    with the verdict and its certificate data."""

    pass_index: int
    block_index: int
    verdict: LoosenessVerdict
    removed: bool


@dataclass
class EnvelopePresentation:
    """The computed C*-envelope of a matrix space.

    ``source`` is the validated input space in the original ambient M_n.
    ``q`` is the sum of retained minimal central projections in original
    coordinates; the embedding is x -> x q.  q is central in C*(X) + C1, so
    it reduces X: x = qxq + (1 - q)x(1 - q) for every x in X, which
    :func:`certify_embedding` uses and verifies.  ``coords`` holds
    orthonormal columns spanning range(q), so compressed working matrices
    are coords* M coords.  ``compressed_basis`` holds the images x_t q in
    range(q) coordinates, and ``algebra`` is the compressed envelope
    algebra.  ``blocks`` are the retained blocks of the one split of
    C*(X), in the split's order, carried into range(q) coordinates; a
    trace step's ``block_index`` indexes that split.  The embedding
    certificate is the product of the removed steps' cb bounds
    (``embedding_cb``).  ``query_cache`` keeps what cone queries derive
    from ``compressed_basis`` alone, built on the first query that needs
    it: :mod:`ncshilov.unitize` keeps the Hermitian-part basis and the
    prepared Karn rows of each matrix level there.
    """

    source: MatrixSpace
    q: np.ndarray
    coords: np.ndarray
    compressed_basis: np.ndarray
    algebra: AlgebraPresentation
    blocks: blockdecomp.BlockDecomposition
    source_unit: np.ndarray | None = None
    trace: list[EliminationStep] = field(default_factory=list)
    seed: int = 0
    tol: float = 1e-7
    query_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def abstract_blocks(self) -> tuple[int, ...]:
        return self.blocks.abstract_blocks

    @property
    def block_sizes(self) -> list[tuple[int, int]]:
        return self.blocks.block_sizes

    @property
    def envelope_dim(self) -> int:
        return self.coords.shape[1]

    def unit(self) -> np.ndarray:
        """The envelope unit in compressed coordinates (the identity)."""
        return np.eye(self.envelope_dim, dtype=np.complex128)

    def compressed_space(self) -> MatrixSpace:
        """The embedded copy as a fresh space (basis re-orthonormalized;
        index alignment with the source basis is lost, use compressed_basis
        when alignment matters)."""
        basis = orthonormalize(self.compressed_basis)
        return MatrixSpace(ambient_dim=self.envelope_dim, basis=basis)

    def eliminations(self) -> int:
        return sum(1 for s in self.trace if s.removed)

    @property
    def embedding_cb(self) -> float:
        """Certified bound on the cb-norm of the inverse of x -> x q: the
        product of max(1, cb_i) over the removed blocks' bounds (1.0 when
        nothing is removed)."""
        return float(np.prod([max(1.0, s.verdict.cb_estimate)
                              for s in self.trace if s.removed]))

    @property
    def embedding_residual(self) -> float:
        """The largest block residual among the removed blocks'
        certificates."""
        return max((s.verdict.residual for s in self.trace if s.removed), default=0.0)


def _completion_map(space_basis, keep_proj, block: blockdecomp.BlockInfo):
    """The completion map X(e - p) -> stripped block copy.

    Returns (LinearMapSpec | None, kernel_coeffs); when the compression
    x -> x(e - p) is not injective on the space, :class:`LinearMapSpec`
    refuses the compressed family, and its certificate, a unit kernel
    coefficient vector, is returned instead.  One SVD, cut by
    :data:`conesolver.DOMAIN_RANK_CUT`, decides both."""
    kept = matcore.support_isometry(keep_proj)
    compressed = np.einsum("ia,tab,bj->tij", kept.conj().T, space_basis, kept)
    images = np.stack([block.strip(b) for b in space_basis])
    try:
        return LinearMapSpec(compressed, images), None
    except DependentFamily as exc:
        return None, exc.certificate


def is_block_loose(x: MatrixSpace, unit, block: blockdecomp.BlockInfo,
                   tol: float = 1e-7) -> LoosenessVerdict:
    """Loose / Essential / Marginal for one minimal central block of the
    space X unit, where ``unit`` is a central projection of C*(X) above the
    block's projection p (the sum of the blocks not yet removed).

    Loose requires the compression x -> x(unit - p) injective on X unit
    (by the rank rule :data:`conesolver.DOMAIN_RANK_CUT`, on the one SVD
    of :class:`LinearMapSpec` that :func:`_completion_map` builds) and the
    completion map back onto the block completely contractive.
    Essential verdicts carry either a kernel witness or a level-q element,
    q the stripped block size, from the cc oracle (the gradient witness or
    the dual point of the Choi solve), whose norm drops under the
    compression (gap re-verified numerically).  Witness coefficients are
    over ``x.basis``.  Every verdict records its route (a kernel, or the
    cc oracle's route), and every one that rests on the cc oracle its
    iteration count (0 in closed form) and ``cb_estimate``: the certified
    upper bound on the completion map's cb-norm for Loose, the witness's
    lower bound for Essential; Loose and Marginal also record the block
    residual of the Choi point they were read at."""
    p = block.projection
    keep = unit - p
    keep_rank = int(round(float(np.real(np.trace(keep)))))
    if keep_rank == 0:
        return LoosenessVerdict(status=ESSENTIAL, block_rank=block.rank, block_k=block.k,
                                reason="compression to zero is not injective")
    lam, kernel = _completion_map(x.basis, keep, block)
    if lam is None:
        coeffs = kernel.reshape(1, 1, -1)
        gap = _witness_gap(x.basis, unit, keep, coeffs)
        return LoosenessVerdict(status=ESSENTIAL, block_rank=block.rank, block_k=block.k,
                                reason="compression has a kernel",
                                witness_level=1, witness_coeffs=coeffs, witness_gap=gap)
    res = conesolver.cc_test(lam, tol=tol)
    if res.verdict == CC_YES:
        return LoosenessVerdict(status=LOOSE, block_rank=block.rank, block_k=block.k,
                                reason=res.diagnostics, cb_estimate=res.cb_estimate,
                                residual=res.residual, iterations=res.iterations,
                                route=res.route)
    if res.verdict == CC_NO:
        coeffs = np.einsum("ijt,ts->ijs", res.violating_coeffs, lam.family_coeffs.T)
        gap = _witness_gap(x.basis, unit, keep, coeffs)
        return LoosenessVerdict(status=ESSENTIAL, block_rank=block.rank, block_k=block.k,
                                reason="norm violation under compression",
                                cb_estimate=res.cb_estimate,
                                witness_level=res.level, witness_coeffs=coeffs,
                                witness_gap=gap, iterations=res.iterations,
                                route=res.route)
    return LoosenessVerdict(status=MARGINAL, block_rank=block.rank, block_k=block.k,
                            reason=res.diagnostics, cb_estimate=res.cb_estimate,
                            residual=res.residual, iterations=res.iterations,
                            route=res.route)


def _witness_gap(basis, unit, keep, coeffs) -> float:
    """||y (1 ⊗ unit)|| - ||y (1 ⊗ keep)|| for a level-k coefficient
    tensor over ``basis``."""
    y = amplify(coeffs, basis)
    one = np.eye(coeffs.shape[0])
    return op_norm(y @ np.kron(one, unit)) - op_norm(y @ np.kron(one, keep))


def compute_envelope(x: MatrixSpace, seed: int = 0, tol: float = 1e-7,
                     scan_order: str = SCAN_DESCENDING_RANK,
                     stats: StageTimes | None = None) -> EnvelopePresentation:
    """Block elimination until no loose block remains.

    B = C*(X) is generated and split once.  Each pass scans the blocks
    neither removed nor already found Essential and removes the first loose
    one; the working space is X unit, with unit the source unit minus the
    removed projections, in the input's coordinates throughout.  Only
    Loose needs a fresh look after a removal (see the module docstring).
    No solve certifies the embedding afterwards: its bound
    ``embedding_cb`` is composed from the removed steps' verdicts.  Raises
    ConeDoesNotSpan, with its certificate, when the positive cone does not
    span at ``tol`` (the recipe's hypothesis, :func:`stargen.cone_spans`)
    and InconclusiveAtTolerance when that test or some block's verdict is
    without a certificate at the working tolerance.  ``stats``, when given,
    receives the wall-clock time of the cone test, of the generation and
    split of C*(X), and of each looseness verdict."""
    stats = stats if stats is not None else StageTimes()
    with stats.stage("cone_spans"):
        stargen.require_spanning_cone(x, tol=tol)
    with stats.stage("C*(X) generation and split"):
        source = stargen.generate_star_algebra(x)
        split = blockdecomp.decompose(source, seed=seed + 977)
    order = sorted(range(len(split.blocks)), key=lambda i: (-split.blocks[i].rank, i))
    if scan_order == SCAN_ASCENDING_RANK:
        order = order[::-1]
    unit = source.unit
    removed: set[int] = set()
    essential: set[int] = set()
    trace: list[EliminationStep] = []
    pass_index = 0
    while True:
        loose = None
        for bi in order:
            if bi in removed or bi in essential:
                continue
            block = split.blocks[bi]
            with stats.stage(f"is_block_loose block {bi}") as timed:
                verdict = is_block_loose(x, unit, block, tol=tol)
                timed.detail = f"{verdict.status} by {verdict.route}" + _solve_detail(verdict)
            if verdict.status == MARGINAL:
                raise InconclusiveAtTolerance(
                    f"looseness of block {bi} (rank {block.rank}) is marginal: "
                    f"{verdict.reason}", block_index=bi)
            trace.append(EliminationStep(pass_index=pass_index, block_index=bi,
                                         verdict=verdict, removed=verdict.status == LOOSE))
            if verdict.status == LOOSE:
                loose = bi
                break
            essential.add(bi)
        if loose is None:
            break
        removed.add(loose)
        unit = unit - split.blocks[loose].projection
        pass_index += 1

    n = x.ambient_dim
    # nothing cut and the algebra unital in M_n: keep the input's coordinates
    if np.abs(unit - np.eye(n)).max() <= 1e-9:
        coords = np.eye(n, dtype=np.complex128)
    else:
        coords = matcore.support_isometry(unit)
    alg = AlgebraPresentation(basis=orthonormalize(_compress(coords, source.basis)),
                              unit=np.eye(coords.shape[1], dtype=np.complex128))
    # range(p) lies in range(coords) for every retained block, so the
    # compression carries each block's data over exactly
    blocks = blockdecomp.BlockDecomposition(blocks=[
        blockdecomp.BlockInfo(projection=matcore.hermitize(_compress(coords, b.projection)),
                              k=b.k, m=b.m, copy=coords.conj().T @ b.copy)
        for i, b in enumerate(split.blocks) if i not in removed])
    q = matcore.hermitize(coords @ coords.conj().T)
    env = EnvelopePresentation(source=x, q=q, coords=coords,
                               compressed_basis=_compress(coords, x.basis),
                               algebra=alg, blocks=blocks, source_unit=source.unit,
                               trace=trace, seed=seed, tol=tol)
    _check_generation(env)
    return env


def _solve_detail(verdict: LoosenessVerdict) -> str:
    """How the cc oracle's verdict was paid for, for the ``--stats``
    line: its interior-point iteration count, or "closed form" when the
    solve did not run; nothing for a kernel verdict."""
    if verdict.iterations is None:
        return ""
    if verdict.iterations == 0:
        return ", closed form"
    return f", {verdict.iterations} iterations"


def _compress(coords, m):
    """coords* m coords, for one matrix or a stack."""
    return coords.conj().T @ m @ coords


def _check_generation(env: EnvelopePresentation, tol: float = 1e-8):
    """The embedded copy must generate the envelope algebra: no proper
    sub-TRO of the envelope contains it."""
    gen = stargen.generate_star_algebra(env.compressed_basis)
    if gen.dim != env.algebra.dim:
        raise NumericallyAmbiguous(
            f"embedded copy generates dimension {gen.dim} != envelope {env.algebra.dim}")
    worst = max(span_residual(env.algebra.basis, b) for b in gen.basis)
    if worst > tol:
        raise NumericallyAmbiguous(f"generated algebra mismatch residual {worst:.2e}")


def certify_embedding(env: EnvelopePresentation, levels: int = 4,
                      samples: int = 500, seed: int = 0,
                      stats: StageTimes | None = None) -> dict:
    """Sampled norm-preservation report for the embedding x -> xq.

    q is a sum of minimal central projections of C*(X), so it is central in
    C*(X) + C1 and reduces X: every x in X is qxq + (1 - q)x(1 - q).  So a
    level-k element y = sum_t c_t ⊗ x_t is the direct sum of its
    compressions y_q to range(q), with ||y_q|| = ||y (1 ⊗ q)||, and y_perp
    to the complement, and ||y|| = max(||y_q||, ||y_perp||); both are
    small matrices over the blocks of the basis (:func:`_reduction`).  The
    reduction is verified, not assumed: the off-diagonal blocks O_t of the
    basis are computed once, and sum_t ||c_t||_F max ||O_t|| is added to
    the pinched norm max(||y_q||, ||y_perp||), which then bounds ||y|| from
    above whether or not q reduces X, while pinching bounds it from below
    (:func:`_reduced_norms`).

    ``max_relative_discrepancy`` is the largest
    1 - ||y_q|| / (max(||y_q||, ||y_perp||) + off-diagonal bound) over random
    level-k elements y, k = 1..levels: an upper bound on the relative norm
    1 - ||y (1 ⊗ q)|| / ||y|| that y loses under x -> xq (||y_q|| never
    exceeds ||y (1 ⊗ q)||), with the off-diagonal residual folded in.  It
    must stay below 1e-6.  Each level draws its ``samples`` coefficient
    tensors with one ``standard_normal`` call, in the order of ``samples``
    consecutive ``random_complex(rng, (k, k, d))`` calls.

    When range(q) has no complement (nothing cut, C*(X) unital in M_n),
    nothing is drawn: y_perp has no entries and no off-diagonal block
    exists, so every sample's bound is ||y_q|| itself and the discrepancy
    is exactly 0.  ``stats``, when given, receives the wall-clock time of
    the check, with how many levels the Cholesky test of
    :func:`_reduced_norms` settled."""
    stats = stats if stats is not None else StageTimes()
    with stats.stage("certify_embedding") as timed:
        inner, outer, leak = _reduction(env)
        worst = 0.0
        if outer.shape[-1] == 0:
            timed.detail = "nothing cut"
        else:
            rng = np.random.default_rng(seed)
            d = env.source.dim
            settled = []
            for k in range(1, levels + 1):
                c = matcore.complex_normals(rng.standard_normal((samples, 2, k, k, d)),
                                            (k, k, d))
                ny, ne = _reduced_norms(c, inner, outer, leak, settled)
                keep = ny >= 1e-12
                worst = max(worst, float((np.abs(ny[keep] - ne[keep]) / ny[keep]).max(initial=0.0)))
            timed.detail = f"complement by Cholesky at {sum(settled)} of {levels} levels"
    return {
        "levels": levels,
        "samples_per_level": samples,
        "max_relative_discrepancy": worst,
        "passed": worst <= 1e-6,
    }


def _reduction(env: EnvelopePresentation):
    """The source basis over range(q) ⊕ range(q)^perp: (coords* B_t coords,
    perp* B_t perp, leak), with perp orthonormal columns spanning the
    complement of range(coords) and leak_t the larger norm of the
    off-diagonal blocks perp* B_t coords and coords* B_t perp (0 when q
    reduces X)."""
    coords, basis = env.coords, env.source.basis
    perp = matcore.null_space(coords.conj().T).T
    leak = np.maximum(op_norms(perp.conj().T @ basis @ coords),
                      op_norms(coords.conj().T @ basis @ perp))
    return env.compressed_basis, _compress(perp, basis), leak


def _reduced_norms(coeffs, inner, outer, leak, settled=None):
    """(an upper bound on ||y||, ||y_q||) for the level-k elements y of a
    stack of coefficient tensors (S, k, k, d), from the blocks of
    :func:`_reduction`: y_q and y_perp are the elements of the same
    coefficients over ``inner`` and ``outer``, and the bound is
    max(||y_q||, ||y_perp||) + sum_t ||c_t||_F leak_t, the pinched norm
    plus a bound on the off-diagonal part.

    Each norm is the square root of the largest eigenvalue eigvalsh
    computes for the Gram matrix y* y (0 when it is negative or y has no
    entries).  ||y_perp|| enters only through the maximum, so it is not
    computed when one batched Cholesky (:func:`matcore.certified_above`)
    proves that every eigenvalue eigvalsh would compute for the Gram
    matrices of y_perp lies below that of y_q, sample by sample: the square
    root rounds monotonically, so the maximum would return ||y_q|| bit for
    bit.  When the test does not decide, the eigenvalues are computed as
    before; the arrays returned are the same either way.  ``settled``, when
    given, receives whether the test decided this stack."""
    top = _top_eigenvalues(_gram(amplify(coeffs, inner)))
    nq = np.sqrt(top)
    gram_perp = _gram(amplify(coeffs, outer))
    by_cholesky = matcore.certified_above(-gram_perp, -top)
    if settled is not None:
        settled.append(by_cholesky)
    pinched = nq if by_cholesky else np.maximum(nq, np.sqrt(_top_eigenvalues(gram_perp)))
    return pinched + (np.linalg.norm(coeffs, axis=(-3, -2)) * leak).sum(axis=-1), nq


def _gram(y):
    """The Gram matrices y* y of a stack."""
    return y.conj().swapaxes(-2, -1) @ y


def _top_eigenvalues(gram):
    """The largest eigenvalue of every Gram matrix of a stack, clipped at 0,
    whose square root is the largest singular value of y (for these small
    stacks cheaper than the batched SVD of :func:`matcore.op_norms`); 0 for
    matrices without entries."""
    if gram.shape[-1] == 0:
        return np.zeros(gram.shape[:-2])
    return np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)


# ---------------------------------------------------------------------------
# Universal-property morphisms
# ---------------------------------------------------------------------------


@dataclass
class IsomorphismResult:
    found: bool
    matrix: np.ndarray | None = None  # algebra coefficients, env_a -> env_b
    block_map: list[tuple[int, int]] | None = None
    residual: float = np.inf
    reason: str = ""


def induced_isomorphism(env_a: EnvelopePresentation, env_b: EnvelopePresentation,
                        correspondence) -> IsomorphismResult:
    """Extend a complete isometry between the source copies of X to a
    *-isomorphism of the two envelope algebras.

    ``correspondence`` maps coefficient vectors over env_a.source.basis to
    coefficient vectors over env_b.source.basis; the caller asserts it is a
    completely positive surjective complete isometry (norm preservation is
    spot-checked at levels 1..2).  The isomorphism is read off the graph
    algebra, the C*-algebra generated by the direct sums a_t (+) (T b)_t of
    the two compressed copies of X: a least-squares fit of its B parts
    against its A parts, verified multiplicative, *-preserving and
    unital.  The graph algebra's dimension must be crisp: a
    correspondence off by more than about 1e-10 relative leaves singular
    values in the closure's rank band and is refused with that reason."""
    t = np.asarray(correspondence, dtype=np.complex128)
    if t.shape != (env_b.source.dim, env_a.source.dim):
        raise ShapeMismatch("correspondence shape does not match source dimensions")
    if env_a.abstract_blocks != env_b.abstract_blocks:
        return IsomorphismResult(found=False, reason="abstract block multisets differ")
    rng = np.random.default_rng(11)
    for k in (1, 2):
        c = np.array([matcore.random_complex(rng, (k, k, env_a.source.dim))
                      for _ in range(8)])
        na = op_norms(amplify(c, env_a.source.basis))
        nb = op_norms(amplify(np.einsum("ut,sijt->siju", t, c), env_b.source.basis))
        rel = np.abs(na - nb) / np.where(na > 1e-9, na, np.inf)
        off = np.flatnonzero(rel > 1e-6)
        if off.size:
            i = off[0]
            return IsomorphismResult(
                found=False,
                reason=f"correspondence not isometric at level {k}: "
                       f"{na[i]:.8f} vs {nb[i]:.8f}")

    # the graph algebra C*({a_t (+) (T b)_t}): its basis elements are
    # alpha (+) pi(alpha) exactly when the correspondence extends to a
    # *-isomorphism pi
    n = env_a.envelope_dim
    graph = np.zeros((env_a.source.dim,) + (n + env_b.envelope_dim,) * 2, dtype=np.complex128)
    graph[:, :n, :n] = env_a.compressed_basis
    graph[:, n:, n:] = np.einsum("si,sab->iab", t, env_b.compressed_basis)
    try:
        words = stargen.generate_star_algebra(graph).basis
    except RankAmbiguous as exc:
        return IsomorphismResult(found=False, reason=f"graph algebra: {exc}")
    flat_a = words[:, :n, :n].reshape(len(words), -1)
    flat_b = words[:, n:, n:].reshape(len(words), -1)
    ca = flat_a @ env_a.algebra.basis.reshape(env_a.algebra.dim, -1).conj().T
    cb = flat_b @ env_b.algebra.basis.reshape(env_b.algebra.dim, -1).conj().T
    sol, _res, rank, _sv = np.linalg.lstsq(ca, cb, rcond=None)
    if rank < env_a.algebra.dim:
        return IsomorphismResult(found=False,
                                 reason=f"intertwiner system rank {rank} < {env_a.algebra.dim}")
    pi = sol.T
    fit = float(np.abs(ca @ sol - cb).max())
    verify = _verify_star_isomorphism(env_a.algebra, env_b.algebra, pi)
    residual = max(fit, verify)
    if residual > 1e-6:
        return IsomorphismResult(found=False, matrix=pi, residual=residual,
                                 reason=f"verification residual {residual:.2e}")
    return IsomorphismResult(found=True, matrix=pi,
                             block_map=_match_blocks(env_a, env_b, pi),
                             residual=residual)


def _verify_star_isomorphism(alg_a, alg_b, pi) -> float:
    """Residual of multiplicativity, *-preservation and unitality."""
    nb = alg_b.ambient_dim
    flat_b = alg_b.basis.reshape(alg_b.dim, -1)

    def img(m):
        c = np.einsum("tab,ab->t", alg_a.basis.conj(), np.asarray(m))
        return (np.einsum("st,t->s", pi, c) @ flat_b).reshape(nb, nb)

    imgs = [img(b) for b in alg_a.basis]
    worst = 0.0
    for i, bi in enumerate(alg_a.basis):
        worst = max(worst, float(np.abs(img(bi.conj().T) - imgs[i].conj().T).max()))
        for j, bj in enumerate(alg_a.basis):
            worst = max(worst, float(np.abs(img(bi @ bj) - imgs[i] @ imgs[j]).max()))
    worst = max(worst, float(np.abs(img(alg_a.unit) - alg_b.unit).max()))
    return worst


def _match_blocks(env_a, env_b, pi) -> list[tuple[int, int]]:
    """Pair the blocks through pi by trace overlap of projection images."""
    out = []
    nb = env_b.algebra.ambient_dim
    flat_b = env_b.algebra.basis.reshape(env_b.algebra.dim, -1)
    for i, blk in enumerate(env_a.blocks.blocks):
        c = np.einsum("tab,ab->t", env_a.algebra.basis.conj(), blk.projection)
        image = (np.einsum("st,t->s", pi, c) @ flat_b).reshape(nb, nb)
        overlaps = [float(np.real(np.trace(image @ b.projection)))
                    for b in env_b.blocks.blocks]
        out.append((i, int(np.argmax(overlaps))))
    return out


@dataclass
class UnitizationMorphism:
    """Verification data of the unital map span{X, I_n} -> span{j(X), q},
    lambda I + v  ->  lambda q + v q."""

    choi_positive: bool
    choi_min_eig: float
    unital_residual: float


def unitization_morphism(x: MatrixSpace, env: EnvelopePresentation) -> UnitizationMorphism:
    """Verify the canonical unital completely positive map onto the
    envelope copy.

    The map is compression by q of the inclusion of span{B, I_n}, which is
    a *-algebra, so complete positivity is certified exactly by the PSD
    test of the block matrix [Psi(a_r* a_s)]_{rs} over an orthonormal basis
    of that algebra."""
    n = x.ambient_dim
    alg = stargen.generate_star_algebra(x)
    with_unit = orthonormalize(
        np.concatenate([alg.basis, [np.eye(n, dtype=np.complex128)]]))
    d = with_unit.shape[0]
    nq = env.envelope_dim
    v = env.coords

    big = np.zeros((d * nq, d * nq), dtype=np.complex128)
    for r in range(d):
        for s in range(d):
            blockm = v.conj().T @ (with_unit[r].conj().T @ with_unit[s]) @ v
            big[r * nq : (r + 1) * nq, s * nq : (s + 1) * nq] = blockm
    chk = matcore.psd_check(matcore.hermitize(big, rtol=1e-8), tol=1e-8)
    unital = float(np.abs(v.conj().T @ np.eye(n) @ v - env.unit()).max())
    return UnitizationMorphism(choi_positive=chk.positive, choi_min_eig=chk.min_eig,
                               unital_residual=unital)
