"""Ordered noncommutative Shilov boundaries of selfadjoint matrix operator spaces.

The package computes the C*-envelope of a finite-dimensional selfadjoint
ordered space of complex matrices by block elimination over the Wedderburn
decomposition of its generated *-algebra, builds and compares its maximal
(X1) and minimal (Xplus) unitizations, and reduces every order or
complete-isometry decision to semidefinite feasibility with explicit
certificates.

Core modules:

- matcore:     dense complex matrix kernel (eigendecomposition, operator
               norms, PSD tests, amplification to matrix levels)
- conesolver:  conic feasibility / norm minimization, complete
               contractivity via Choi matrices on the Paulsen system
- stargen:     *-algebra and *-TRO generation, cone spanning detection
- blockdecomp: minimal central projections and multiplicity stripping
- envelope:    loose-block elimination, certified embeddings, induced
               *-isomorphisms
- unitize:     X1 / Xplus unitizations, cone membership, distance to unit
- funcspace:   commutative specialization on finite point sets (LP oracle)
- cli:         file formats, reports, and the command-line front end

The matrix pipeline needs numpy alone.  scipy is needed only by the LP
route of funcspace, which imports scipy.optimize, and with it HiGHS, at
its first LP.
"""

from ncshilov.errors import (
    BadProgram,
    ConeDoesNotSpan,
    DegenerateSample,
    DependentFamily,
    ElementNotInSpace,
    InconclusiveAtTolerance,
    NonFinite,
    NotAFactor,
    NumericallyAmbiguous,
    ParseError,
    RankAmbiguous,
    ShapeMismatch,
    UnitNotInAlgebra,
    ZeroSpace,
)

__all__ = [
    "BadProgram",
    "ConeDoesNotSpan",
    "DegenerateSample",
    "DependentFamily",
    "ElementNotInSpace",
    "InconclusiveAtTolerance",
    "NonFinite",
    "NotAFactor",
    "NumericallyAmbiguous",
    "ParseError",
    "RankAmbiguous",
    "ShapeMismatch",
    "UnitNotInAlgebra",
    "ZeroSpace",
]

__version__ = "0.1.0"
