"""Error types raised by the library, one per failure domain.

Each class corresponds to a distinct exit code at the command line so that
scripted callers can tell failure modes apart without parsing messages.
"""


class NCLabError(Exception):
    """Base class for every library-specific error."""


class MapNotInvertible(NCLabError):
    """The deformation product theta*eta reached or exceeded hbar**2."""


class InvalidGauge(NCLabError):
    """A gauge pair is unusable: nonpositive entries or wrong product."""


class NonFiniteState(NCLabError):
    """A numerical trajectory produced NaN or infinity."""


class DomainError(NCLabError):
    """A value or unit a command writes is not a normal float (algebra.check_scales)."""


class DegenerateFormMisuse(NCLabError):
    """The degenerate (theta*eta = 0) closed form was called off-domain."""


class UnreachableRatio(NCLabError):
    """A requested beat-to-rotation frequency ratio is not realisable."""


# Exit codes for the command-line surface.  0 is success, 1 means one or
# more requested invariant checks failed; everything else is an error type.
EXIT_CODES = {
    MapNotInvertible: 3,
    InvalidGauge: 4,
    UnreachableRatio: 5,
    DomainError: 6,
    DegenerateFormMisuse: 7,
    NonFiniteState: 8,
}

CHECKS_FAILED_EXIT = 1


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the command-line exit code for its type."""
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 10
