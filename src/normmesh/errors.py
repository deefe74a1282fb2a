"""Exception types shared across the package, and its one integer check.

``report_error`` maps these onto process exit codes for the command line
and the scripts: validation problems (bad parameters, unreadable inputs,
sets that cannot norm the requested space) exit with code 2, while
violations of certified inequalities or precision audits exit with code 3.
The latter indicate a bug rather than a user error and should never occur
in normal operation.
"""

import numbers
import sys


class NormMeshError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NormMeshError):
    """A parameter or input fails its documented precondition."""


class InputError(ValidationError):
    """An external input (file or stream) is unreadable or malformed."""


class NonDeterminingError(ValidationError):
    """The sampled grid cannot norm the requested polynomial space."""

    def __init__(self, message: str, rank: int | None = None, dim: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.dim = dim


class InvariantViolation(NormMeshError):
    """A certified inequality or a precision audit failed."""


def check_int(value, what: str, minimum: int = 1) -> int:
    """``int(value)`` when value is an integer of at least ``minimum``.

    Accepts any ``numbers.Integral`` (``int`` and ``np.integer``, which
    numpy registers there) and rejects ``bool``; anything else raises
    ``ValidationError`` naming ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        if minimum == 1:
            wanted = "a positive integer"
        elif minimum == 0:
            wanted = "a non-negative integer"
        else:
            wanted = f"an integer >= {minimum}"
        raise ValidationError(f"{what} must be {wanted}, got {value!r}")
    return int(value)


def report_error(exc: Exception) -> int:
    """Print ``exc`` on stderr as ``ERROR[code]: ...`` and return the exit
    code: 3 for a violated certificate or precision audit, 2 otherwise."""
    code = 3 if isinstance(exc, InvariantViolation) else 2
    print(f"ERROR[{code}]: {exc}", file=sys.stderr)
    return code
