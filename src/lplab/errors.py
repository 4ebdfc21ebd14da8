"""Exception types shared across the package.

Every error raised by lplab derives from :class:`LplabError`, so callers can
catch one base class at CLI boundaries and map it to a nonzero exit code.
"""


class LplabError(Exception):
    """Base class for all lplab errors."""


class ShapeMismatch(LplabError):
    """Sample array shape does not match the grid."""


class NonFiniteSample(LplabError):
    """Samples contain NaN or infinity."""


class UnresolvableSpec(LplabError):
    """A test-function spec cannot be realized on the given grid."""


class InvalidExponent(LplabError):
    """An exponent (p, q, r, s, L) is outside its admissible range."""


class RangeTooNarrow(LplabError):
    """The grid supports fewer than three dyadic bands."""


class BandOutOfRange(LplabError):
    """Requested band index lies outside the band system."""


class UnresolvedEnergy(LplabError):
    """Too much spectral energy lies outside the resolvable band range."""


class GridMismatch(LplabError):
    """Two fields or a field and an operator live on different grids."""


class MisalignedStep(LplabError):
    """Shift-based differences need steps aligned with the grid."""


class InvalidAxis(LplabError):
    """Axis index outside range(dim)."""


class DimensionTooLow(LplabError):
    """Operation requires a higher dimension (sphere means need dim >= 2)."""


class QuadratureTooCoarse(LplabError):
    """Quadrature node counts too small to honor the requested window."""


class EmptyDecomposition(LplabError):
    """A band decomposition holds no bands."""


class BandRangeEmpty(LplabError):
    """j_min > j_max leaves no bands to build."""


class UnknownTheoremId(LplabError):
    """Unrecognized hypothesis-window identifier."""


class GeometryViolated(LplabError):
    """A probe window violates its stated support geometry."""


class ConfigParseError(LplabError):
    """A config file or CLI parameter set cannot be parsed."""


class IoError(LplabError):
    """A field file cannot be read or written."""
