"""Exception types shared across the package: one class for each exit code
of the command line (see :mod:`freeconv.cli`).

* `InvalidParameter` (exit 2): an input, argument or request outside its
  admissible range or shape;
* `NotAMomentSequence` (exit 3);
* `RouteMismatch` (exit 4);
* `DomainError` (exit 5);
* `OrderExceeded` (exit 6): the input does not determine the request;
* `NoConvergence` (exit 2, as any other `FreeconvError`).
"""


class FreeconvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(FreeconvError):
    """An argument or request is outside its admissible range or shape."""


class NotAMomentSequence(FreeconvError):
    """A sequence failed positive-semidefiniteness during conversion."""


class RouteMismatch(FreeconvError):
    """Two computation routes that must agree exactly did not."""


class DomainError(FreeconvError):
    """Evaluation outside the open upper half-plane, or at a point where a
    transform is too close to zero to invert."""


class OrderExceeded(FreeconvError):
    """A computation needs moments or recursion levels beyond those the
    input determines."""


class NoConvergence(FreeconvError):
    """Fixed-point iteration did not reach tolerance.

    Carries the last iterate and the last gap so callers can report how
    close the iteration got.
    """

    def __init__(self, message, last=None, gap=None):
        super().__init__(message)
        self.last = last
        self.gap = gap
