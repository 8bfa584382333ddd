"""Seeded inputs of the three workloads.

Everything here is a pure function of the seed it is given.  The matrix
and function spaces come from the ``ncshilov.selftest`` generators that the
acceptance criteria use.  The cone-query elements of ``unitize-queries``
follow criterion 6's element mix (``selftest.random_unitized_element``) with
real draws instead of complex ones and planted non-members instead of
unbiased draws; README.md says why.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

import checks
from ncshilov import envelope, selftest, stargen, unitize

# envelope-loose: criterion 4's corpus, the planted loose spaces its
# acceptance test draws from this seed, each with its envelope seed, and
# their unitarily conjugated copies (seed + 1000).  The workload seed picks
# which corpus spaces a run sends: one per (a, b, extra blocks) per round.
LOOSE_CORPUS_SEED = 404
LOOSE_CORPUS_SIZE = 50
LOOSE_STRATA = tuple(itertools.product((2, 3), (1, 2), (0, 1)))
# boundary-functions: criterion 5's corpus, the spaces its acceptance test
# draws from this seed (each cross-checked with its index as seed).  Fresh
# draws of the same generator fail on some seeds (README.md, "Failures"),
# so the workload seed picks which corpus spaces a run sends: one per point
# count per round.
FUNCTION_CORPUS_SEED = 505
FUNCTION_CORPUS_SIZE = 100
POINT_STRATA = tuple(range(3, 9))
# unitize-queries: the envelopes made in set-up, one per kind and size of
# criterion 6's spaces, drawn from criterion 6's seed so that every run
# queries the same four envelopes, and the elements asked per envelope and
# round, drawn from the workload seed.  Criterion 6 cuts its loose spaces
# with b = 1; here b = 2, because on some real b = 1 draws the envelope
# itself fails (README.md, "Failures").
UNITIZE_SPACE_SEED = 606
UNITIZE_STRATA = (("loose", 2), ("generic", 2), ("loose", 3), ("generic", 3))
UNITIZE_LOOSE_B = 2
# The (kind, level) of the elements asked per envelope and round: criterion
# 6's shares of kinds (40 / 30 / 30 %) and levels 1-2, fixed rather than
# drawn, because a planted non-member costs about 15 planted members.
UNITIZE_ELEMENTS = (("planted", 1), ("planted", 2), ("planted", 1), ("planted", 2),
                    ("indefinite", 1), ("indefinite", 2), ("indefinite", 1),
                    ("separated", 2), ("separated", 1), ("separated", 2))
# The seed-independent block that carries the `_equality_pairings` sign
# fault: criterion 6's generator at seed 6606, first envelope (complex, so
# the fault applies), first FAULT_ELEMENTS elements.  26 is the shortest
# prefix that holds both kinds of failure the fault causes: element 16
# gets a No whose separating functional fails the re-check and element 25
# comes back Inconclusive.
FAULT_SEED = 6606
FAULT_ELEMENTS = 26
# The seed-independent function space that carries the LP-route fault of
# `funcspace._point_sup`: criterion 5's generator at this seed, with 4
# points and dimension 3.  Its LP boundary drops an essential point.
FUNCTION_FAULT_SEED = 2


def space_file(generators) -> str:
    """A matrix space file in the CLI's format."""
    gens = [np.asarray(g, dtype=np.complex128) for g in generators]
    return json.dumps({
        "format_version": "1",
        "kind": "matrix",
        "ambient_dim": int(gens[0].shape[0]),
        "generators": [[[[float(z.real), float(z.imag)] for z in row] for row in g]
                       for g in gens],
    })


def function_file(vectors) -> str:
    """A function space file in the CLI's format."""
    vecs = np.asarray(vectors, dtype=np.complex128)
    return json.dumps({
        "format_version": "1",
        "kind": "function",
        "points": int(vecs.shape[1]),
        "generators": [[[float(z.real), float(z.imag)] for z in v] for v in vecs],
    })


def criterion4_corpus():
    """Criterion 4's spaces as (stratum (a, b, extra), generators, envelope
    seed), drawn as its acceptance test draws them."""
    rng = np.random.default_rng(LOOSE_CORPUS_SEED)
    corpus = []
    for i in range(LOOSE_CORPUS_SIZE):
        stratum = (int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        a, b, extra = stratum
        gens = selftest.loose_instance(rng, a=a, b=b, extra_blocks=extra)
        u = selftest.random_unitary(rng, gens[0].shape[0])
        corpus.append((stratum, gens, i))
        corpus.append((stratum, [u @ g @ u.conj().T for g in gens], i + 1000))
    return corpus


def loose_spaces(rng, rounds):
    """``rounds`` rounds of criterion 4's spaces, one per stratum, in an
    order drawn from ``rng``; yields (round, a, generators, seed)."""
    corpus = criterion4_corpus()
    strata = {s: [c for c in corpus if c[0] == s] for s in LOOSE_STRATA}
    order = {s: rng.permutation(len(strata[s])) for s in LOOSE_STRATA}
    for r in range(rounds):
        for s in LOOSE_STRATA:
            _, gens, seed = strata[s][order[s][r % len(order[s])]]
            yield r, s[0], gens, seed


def criterion5_corpus():
    """Criterion 5's spaces as (generators, cross-check seed): the draws of
    ``selftest.random_function_space`` from FUNCTION_CORPUS_SEED."""
    rng = np.random.default_rng(FUNCTION_CORPUS_SEED)
    corpus = []
    for i in range(FUNCTION_CORPUS_SIZE):
        m = int(rng.integers(3, 9))
        d = int(rng.integers(2, min(m, 5) + 1))
        corpus.append((rng.uniform(0.0, 1.0, size=(d, m)), i))
    return corpus


def function_spaces(rng, rounds):
    """``rounds`` rounds of criterion 5's spaces, one per point count, in an
    order drawn from ``rng``; yields (round, generators, seed)."""
    corpus = criterion5_corpus()
    strata = {m: [c for c in corpus if c[0].shape[1] == m] for m in POINT_STRATA}
    order = {m: rng.permutation(len(strata[m])) for m in POINT_STRATA}
    for r in range(rounds):
        for m in POINT_STRATA:
            gens, seed = strata[m][order[m][r % len(order[m])]]
            yield r, gens, seed


def fault_function_space():
    """Generators of the fault block of boundary-functions."""
    rng = np.random.default_rng(FUNCTION_FAULT_SEED)
    return selftest.random_function_space(rng, m=4, d=3).basis.real


def real_psd(rng, n):
    g = rng.standard_normal((n, n))
    return (g @ g.T).astype(np.complex128)


def real_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def real_loose_instance(rng, a, b, ngens=3):
    """``selftest.loose_instance`` with real draws: positive generators
    g ⊕ V^T g V (V a real isometry) under a real orthogonal conjugation.
    The envelope is M_a."""
    v = real_orthogonal(rng, a)[:, :b]
    total = a + b
    u = real_orthogonal(rng, total)
    gens = []
    for _ in range(ngens):
        g = real_psd(rng, a)
        big = np.zeros((total, total), dtype=np.complex128)
        big[:a, :a] = g
        big[a:, a:] = v.T @ g @ v
        gens.append(u @ big @ u.T)
    return gens


def unitize_spaces():
    """Criterion 6's loose spaces (M_a plus one loose block) and generic
    spaces (three positive generators in M_n), real draws from
    UNITIZE_SPACE_SEED; yields (generators, envelope seed)."""
    rng = np.random.default_rng(UNITIZE_SPACE_SEED)
    for i, (kind, size) in enumerate(UNITIZE_STRATA):
        if kind == "loose":
            gens = real_loose_instance(rng, a=size, b=UNITIZE_LOOSE_B)
        else:
            gens = [real_psd(rng, size) for _ in range(3)]
        yield gens, i


def level_coords(env, matrix, k):
    """(k, k, d) coordinates of a level-k matrix over the envelope's
    compressed basis (least squares; the matrix lies in the span)."""
    n = env.envelope_dim
    d = env.source.dim
    flat = env.compressed_basis.reshape(d, -1).T
    coords = np.zeros((k, k, d), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            block = matrix[i * n:(i + 1) * n, j * n:(j + 1) * n]
            coords[i, j] = np.linalg.lstsq(flat, block.reshape(-1), rcond=None)[0]
    return coords


def real_unitized_element(rng, env, positives, hb, kind, k):
    """An element of criterion 6's kinds at level ``k``, with real draws.

    "planted": a Karn member v = w - R u0 R, as in
    ``selftest.random_unitized_element``.  "indefinite": an indefinite
    scalar part, as there.  "separated", in place of criterion 6's unbiased
    draws: a planted non-member v = -c (1 ⊗ s), s the sum of the positives
    (positive definite on the envelope), with c lambda_min(s) at least
    1.5 ||A + eps|| for every scheduled eps, so v + R u R has a negative
    eigenvalue for every admissible u."""
    n = env.envelope_dim
    a = rng.standard_normal((k, k))
    a = 0.5 * (a + a.T)
    if kind == "indefinite":
        a = a - (abs(float(np.linalg.eigvalsh(a)[0])) + rng.uniform(0.1, 1.0)) * np.eye(k)
        cr = rng.standard_normal((k, k, hb.shape[0]))
        cr = 0.5 * (cr + cr.transpose(1, 0, 2))
        v = np.einsum("ijt,tab->iajb", cr, hb).reshape(k * n, k * n) * rng.uniform(0.3, 1.5)
        return unitize.UnitizedElement(level=k, v_coords=level_coords(env, v, k),
                                       scalar_part=a)
    a = a + (abs(float(np.linalg.eigvalsh(a)[0])) + rng.uniform(0.05, 1.0)) * np.eye(k)
    s = sum(positives)
    if kind == "separated":
        reach = float(np.linalg.eigvalsh(a)[-1]) + max(unitize.DEFAULT_EPS_SCHEDULE)
        c = rng.uniform(1.5, 3.0) * reach / float(np.linalg.eigvalsh(s)[0])
        v = -c * np.kron(np.eye(k), s)
        return unitize.UnitizedElement(level=k, v_coords=level_coords(env, v, k),
                                       scalar_part=a)
    u0 = np.zeros((k * n, k * n), dtype=np.complex128)
    for g in positives:
        c = rng.standard_normal((k, k))
        u0 = u0 + np.kron(c @ c.T, g)
    u0 = u0 * (rng.uniform(0.2, 0.8) / max(np.linalg.norm(u0, 2), 1e-12))
    big_root = np.kron(checks.psd_sqrt(a + min(unitize.DEFAULT_EPS_SCHEDULE) * np.eye(k)),
                       np.eye(n))
    w = rng.uniform(0.05, 0.3) * np.kron(np.eye(k), s)
    v = w - big_root @ u0 @ big_root
    return unitize.UnitizedElement(level=k, v_coords=level_coords(env, v, k), scalar_part=a)


def fault_space_and_elements():
    """The seed-independent inputs of the fault block: criterion 6's
    generator at FAULT_SEED, first envelope (a complex loose space), and its
    first FAULT_ELEMENTS elements.  Returns (env, [(kind, element)])."""
    rng = np.random.default_rng(FAULT_SEED)
    gens = selftest.loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
    env = envelope.compute_envelope(stargen.validate_space(gens), seed=0)
    positives = selftest.compressed_positives(env, gens)
    elems = [("criterion6", selftest.random_unitized_element(rng, env, positives))
             for _ in range(FAULT_ELEMENTS)]
    return env, elems
