"""Exception types shared across the package: one class for each failure
exit code of the command line, which each class carries as `exit_code`
and :func:`freeconv.cli.main` returns.  `InvalidParameter` and
`NoConvergence` keep the base class's code.

Two helpers own the refusals that every module shares.  :func:`_count` is
the one refusal of a count that is not an int, or is a bool,
``InvalidParameter("{name} must be an integer, got {n!r}")``, or that lies
below its least value (an order, an iteration count, a level, a depth cap,
a dimension, a radius, a number of terms),
``InvalidParameter("{name} must be >= {least}, got {n}")``;
:func:`_prefix` is the one refusal of a request for more terms than are
given, ``OrderExceeded("only N moments available, M requested")``.
Malformed input is rejected, never read as something else.
"""


class FreeconvError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidParameter(FreeconvError):
    """An argument or request is outside its admissible range or shape."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _count(n: int, least: int = 0, name: str = "n") -> int:
    """n, a count named `name`, refused by `InvalidParameter` when it is not
    an int (so True is not one term, nor 2.0 two) or below `least` (so
    n = -1 terms is not read as m[:-1])."""
    if not _is_int(n):
        raise InvalidParameter(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {n}")
    return n


class NotAMomentSequence(FreeconvError):
    """A sequence failed positive-semidefiniteness during conversion."""

    exit_code = 3


class RouteMismatch(FreeconvError):
    """Two computation routes that must agree exactly did not."""

    exit_code = 4


class DomainError(FreeconvError):
    """Evaluation outside the open upper half-plane, or at a point where a
    transform is too close to zero to invert."""

    exit_code = 5


class OrderExceeded(FreeconvError):
    """A computation needs moments or recursion levels beyond those the
    input determines."""

    exit_code = 6


def _prefix(values, n: int, what: str = "moments") -> tuple:
    """The first n of the given `values` as a tuple; a negative n is
    refused by `_count`, and more than are given by `OrderExceeded`."""
    if _count(n) > len(values):
        raise OrderExceeded(f"only {len(values)} {what} available, {n} requested")
    return tuple(values[:n])


class NoConvergence(FreeconvError):
    """Fixed-point iteration did not reach tolerance.

    Carries the last iterate and the last gap so callers can report how
    close the iteration got.
    """

    def __init__(self, message, last=None, gap=None):
        super().__init__(message)
        self.last = last
        self.gap = gap
