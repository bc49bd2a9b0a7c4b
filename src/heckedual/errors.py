"""Exception types shared across the package."""


class HeckedualError(Exception):
    """Base class for errors raised by this package."""


class UsageError(HeckedualError):
    """Malformed command line or option combination."""


class ValidationError(HeckedualError):
    """Input data failed validation (bad root datum, coweight, value...)."""


class OmegaViolationError(ValidationError):
    """A parameter assignment broke the modulus condition values(delta) = q."""


class CapExceededError(HeckedualError):
    """A resource cap (Weyl group size, tree depth, height) was exceeded."""


class PoleError(HeckedualError):
    """Numeric evaluation hit a pole of a local factor."""


class RankMismatchError(ValidationError):
    """Operands live over lattices of different ranks."""
