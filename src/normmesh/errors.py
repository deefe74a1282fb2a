"""Exception types shared across the package, its integer check, the
dimension of the polynomial space and of its traces on a tensor grid, and
its dense-array byte budget.

``exit_code_of`` maps these and ``OSError`` onto exit codes for the
command line and the scripts: validation problems (bad parameters,
unreadable inputs, sets that cannot norm the requested space) and failed
reads or writes exit with code 2, while violations of certified
inequalities or precision audits exit with code 3.  The latter indicate a
bug rather than a user error and should never occur in normal operation.
``check_out_path`` lets them refuse an unwritable output file up front.
``exit_process`` ends those processes once their output is flushed,
without interpreter teardown unless a flush fails, which it leaves to the
interpreter to report.
"""

import errno
import itertools
import math
import numbers
import os
import sys
from typing import Callable, NoReturn, Sequence


# Largest dense float64 array the package allocates: a sampled grid, or an
# evaluation matrix of grid points by basis members, of which node
# selection holds two at once (the orthonormal basis and the cardinal
# matrix), plus the grid's coordinates while the basis is built.
MAX_DENSE_BYTES = 2 ** 30


class NormMeshError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NormMeshError):
    """A parameter or input fails its documented precondition."""


class InputError(ValidationError):
    """An external input (file or stream) is unreadable or malformed."""


class NonDeterminingError(ValidationError):
    """The sampled grid's numerical rank falls short of the space dimension.

    ``rank`` and ``dim`` are the numerical rank and the dimension: the
    grid cannot norm the requested polynomial space.
    """

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


def dim_full(n: int, d: int) -> int:
    """Dimension C(d + n, n) of the degree-<=d polynomials in n variables,
    for an integer n >= 1 and d >= 0; exact at any size."""
    n = check_int(n, "number of variables")
    d = check_int(d, "degree", minimum=0)
    return math.comb(d + n, n)


def dim_tensor(d: int, counts: Sequence[int]) -> int:
    """Dimension of the degree-<=d polynomials' traces on a tensor grid of
    ``counts[i]`` distinct values on axis i: the number of exponents alpha
    with |alpha| <= d and every alpha_i < counts[i], since an axis's values
    determine exactly its polynomials of degree below their count.  It is
    ``dim_full(len(counts), d)`` when every count exceeds d.  d must be an
    integer >= 0 and each count one >= 1.

    Counted exactly by totals, one axis at a time, up to min(d, the
    largest total sum(counts) - n), so the work is O(n) integers per
    total whatever d is.
    """
    d = check_int(d, "degree", minimum=0)
    counts = [check_int(count, "axis count") for count in counts]
    top = min(d, sum(counts) - len(counts))
    # ways[t]: the exponents of the axes so far with total t
    ways = [1] + [0] * top
    for count in counts:
        below = [0, *itertools.accumulate(ways)]
        ways = [below[t + 1] - below[max(t + 1 - count, 0)] for t in range(top + 1)]
    return sum(ways)


def check_dense(rows: int, cols: int, what: str) -> None:
    """Refuse a rows x cols float64 array above ``MAX_DENSE_BYTES``, naming ``what``."""
    nbytes = rows * cols * 8
    if nbytes > MAX_DENSE_BYTES:
        raise ValidationError(
            f"a {rows} x {cols} {what} needs {nbytes} bytes, above the "
            f"{MAX_DENSE_BYTES}-byte limit for one dense array")


def check_out_path(path: str) -> None:
    """Refuse an output file that is empty, is a directory, is not
    writable, or whose directory is missing or not writable.

    Raises the ``OSError`` that opening ``path`` for writing would raise,
    so a command can refuse it before any work, and creates nothing.
    """
    directory = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def exit_code_of(main: Callable[..., int], *args) -> int:
    """``main(*args)``, or for the ``NormMeshError`` or ``OSError`` it
    raised, an exit code after printing the error on stderr as
    ``ERROR[code]: ...``: 3 for a violated certificate or precision audit,
    2 otherwise.  Any other exception propagates."""
    try:
        return main(*args)
    except (NormMeshError, OSError) as exc:
        code = 3 if isinstance(exc, InvariantViolation) else 2
        print(f"ERROR[{code}]: {exc}", file=sys.stderr)
        return code


def exit_process(code: int) -> NoReturn:
    """Flush stdout, then stderr, and end the process with ``code`` at once.

    ``os._exit`` skips interpreter teardown (module clean-up and ``atexit``
    handlers), which costs tens of milliseconds after the output is
    complete; the package registers no ``atexit`` handler and closes every
    file it writes.  A stream that is None or closed is skipped.  A flush
    that fails hands the exit to the interpreter (``sys.exit``), whose
    teardown flushes again, reports the failure and makes the status 120.
    """
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except (OSError, ValueError):
            sys.exit(code)
    os._exit(code)
