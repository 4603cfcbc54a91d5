"""Exception types shared across the package."""


class RsosError(Exception):
    """Base class for all package errors."""


class InfiniteSet(RsosError):
    """Enumeration requested of the infinite orbit of an unrestricted model."""


class ContextMismatch(RsosError):
    """Operands live over different groupoids."""


class ShapeMismatch(RsosError):
    """Block shapes or graded components are incompatible."""


class InvalidTau(RsosError):
    """The modular parameter must have positive imaginary part."""


class NearPole(RsosError):
    """Evaluation requested too close to a pole or a vanishing denominator."""


class BaseOnSingularSet(RsosError):
    """SOS base point lies on the singular set a_i - a_j in r*Z."""


class RestrictionViolated(RsosError):
    """A component that must vanish under the height restriction does not."""


class SupportOutsideAlcove(RsosError):
    """Convolution element has support outside the requested alcove."""


class TooLarge(RsosError):
    """A requested size exceeds a named budget or the float64 range."""


def check_budget(name: str, requested: int | float, limit: int,
                 unit: str) -> None:
    """Raise TooLarge "NAME: N UNIT requested, limit L" when requested > limit;
    a float count (a series length, inf when it overflows) is written without
    decimals."""
    if requested > limit:
        count = f"{requested:.0f}" if isinstance(requested, float) else requested
        raise TooLarge(f"{name}: {count} {unit} requested, limit {limit}")


class OutOfRange(RsosError):
    """Index outside the admissible range."""


class UnknownSuite(RsosError):
    """Verification suite name not recognized."""


class UnknownTarget(RsosError):
    """Computation target name not recognized."""


class InvalidConfig(RsosError, ValueError):
    """Run configuration violates a constraint."""
