"""Exception types shared across the package."""


class MtcError(Exception):
    """Base class for all errors raised by this package."""


class CategoryFileError(MtcError):
    """A category file is malformed.  Carries a human-readable location."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class RingAxiomError(MtcError):
    """Fusion-ring level axiom violated (unit, duality, associativity)."""


class NotModular(MtcError):
    """Operation requires an invertible S-matrix but the input is only premodular."""


class NotPremodular(MtcError):
    """Input data fails a structural requirement of a braided ribbon category."""


class SnapFailure(MtcError):
    """A value expected to be a non-negative integer is too far from one."""


class ShapeMismatch(MtcError):
    """Morphism composition or inversion attempted with incompatible shapes."""


class WordTooLong(MtcError):
    """Tensor word exceeds the supported length bound."""


class InvalidWord(MtcError):
    """A tensor word is not a tuple of Python int labels in [0, rank)."""


class PositionOutOfRange(MtcError):
    """Strand position or range does not exist in the given word."""


class TraceOnNonEndomorphism(MtcError):
    """Quantum trace requested for a morphism whose source and target differ."""


class XiNotZeroOne(MtcError):
    """A scalar that must be 0 or 1 for consistent input is neither."""


class RankOverflow(MtcError):
    """Requested product category exceeds the configured rank bound."""
