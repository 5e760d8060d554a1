"""Exception types shared across the package.

Every error that callers are expected to catch lives here, so that modules
can raise each other's failure modes without import cycles.
"""


class MorsevanishError(Exception):
    """Base class for all package errors."""


class DomainViolation(MorsevanishError):
    """Evaluation left the domain of definition.

    Raised for a rational power of a non-positive base and for a quotient
    whose denominator vanishes at the evaluation point.
    """


class ExpressionParseError(MorsevanishError):
    """Malformed expression text. Carries 1-based line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ConfigError(MorsevanishError):
    """A configuration file failed validation."""


class ConfigParse(ConfigError):
    """Config text is not valid JSON. Carries 1-based line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class CountingRefused(ConfigError):
    """A source's Morse index has no flowline counting route."""


class ZeroPolynomial(ConfigError):
    """The zero polynomial has no well-defined pole order."""


class AlphaTooSmall(ConfigError):
    """Boundary exponent too small for the chosen polynomial degree."""


class NotPositiveDefinite(MorsevanishError):
    """A metric matrix failed its Cholesky positivity certificate."""


class DegenerateCriticalPoint(MorsevanishError):
    """An operation that needs a nondegenerate Hessian met a degenerate one."""


class MorsificationFailed(MorsevanishError):
    """No admissible linear perturbation removed the degeneracy."""


class BudgetExceeded(MorsevanishError):
    """Trajectory integration ran out of steps or arc length."""


class StepCollapse(MorsevanishError):
    """Adaptive step size fell below the hard floor."""


class NotConverged(MorsevanishError):
    """Energy was requested for a trajectory that never settled."""


class DeltaFloor(MorsevanishError):
    """Continuation slowdown halved past its floor without confinement."""


class MissingCount(MorsevanishError):
    """A boundary count for an index-difference-one pair was not supplied,
    or came with a counting warning."""


class NotChainMap(MorsevanishError):
    """A candidate chain map failed the exact commutation check."""


class NotAComplex(MorsevanishError):
    """Boundary matrices failed the exact d.d = 0 check."""


class ResolutionTooCoarse(MorsevanishError):
    """Cubical masks failed to stabilise within the resolution budget."""


class UnknownEntry(MorsevanishError):
    """Catalog lookup for a name that is not registered."""


class CorruptCache(MorsevanishError):
    """A cache artifact failed to decode; callers should recompute."""
