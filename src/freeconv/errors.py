"""Exception types shared across the package: one class for each failure
exit code of the command line, which each class carries as `exit_code`
and :func:`freeconv.cli.main` returns.  `InvalidParameter` and
`NoConvergence` keep the base class's code.
"""


class FreeconvError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidParameter(FreeconvError):
    """An argument or request is outside its admissible range or shape."""


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


class NoConvergence(FreeconvError):
    """Fixed-point iteration did not reach tolerance.

    Carries the last iterate and the last gap so callers can report how
    close the iteration got.
    """

    def __init__(self, message, last=None, gap=None):
        super().__init__(message)
        self.last = last
        self.gap = gap
