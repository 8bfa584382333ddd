"""Exception types shared across the package."""


class NcShilovError(Exception):
    """Base class for all package errors."""


class NonFinite(NcShilovError):
    """Matrix entries contain NaN or Inf."""


class ShapeMismatch(NcShilovError):
    """Operands have incompatible shapes."""


class DependentFamily(ShapeMismatch):
    """A matrix family is numerically dependent: ``certificate`` is a unit
    c with ||sum_t c_t D_t|| below the rank cut that found it."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ZeroSpace(NcShilovError):
    """All generators are numerically zero."""


class RankAmbiguous(NcShilovError):
    """Singular values fall inside the ambiguity band; the numerical rank
    of a closure is not crisp enough to trust."""


class UnitNotInAlgebra(NcShilovError):
    """The candidate unit projection does not lie in the algebra span,
    signalling a closure failure upstream."""


class DegenerateSample(NcShilovError):
    """Every randomized splitting sample failed its certificate (a
    spectral collision, a wrong projection count, a copy of the wrong rank
    or residual); retries exhausted."""


class NotAFactor(NcShilovError):
    """A compressed central block is not a full matrix algebra (its
    dimension is not a perfect square); upstream decomposition failed."""


class ConeDoesNotSpan(NcShilovError):
    """The positive cone of the space does not span it; the C*-envelope
    recipe does not apply.  ``certificate``, re-checked when found, is a
    trace-one W >= 0 on the joint range (matrix space) or a probability
    measure on the support (function space), orthogonal to the space up to
    a residual.  So every trace-one (sum-one) positive element has its
    least eigenvalue on the joint range (least value on the support) at
    most ``bound`` <= tol; a negative bound means the cone is {0}."""

    def __init__(self, message, certificate=None, bound=None):
        super().__init__(message)
        self.certificate = certificate
        self.bound = bound


class InconclusiveAtTolerance(NcShilovError):
    """A looseness decision came back marginal at the working tolerance."""

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index


class NumericallyAmbiguous(NcShilovError):
    """An intertwiner system is rank-deficient beyond tolerance."""


class BadProgram(NcShilovError):
    """A conic program is inconsistently shaped."""


class ParseError(NcShilovError):
    """A space or element file failed strict parsing."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ElementNotInSpace(NcShilovError):
    """Element coordinates reference basis indices the space does not have."""
