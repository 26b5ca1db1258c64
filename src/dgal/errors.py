"""Error types shared across the package.

Each class maps to a CLI exit code so failures stay distinguishable
from the command line.
"""


class DgalError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(DgalError):
    """The input means nothing: a missing file, a malformed number, or a
    cap outside its range."""

    exit_code = 2


class UnsupportedInstanceError(DgalError):
    """The input is valid but falls outside the implemented class.

    Raised instead of guessing: wrong answers are worse than refusals.
    """

    exit_code = 2


class ResourceCapError(DgalError):
    """A configured size or time cap was exceeded."""

    exit_code = 3


class SingularPointError(DgalError):
    """The requested expansion point is a pole of the system matrix."""

    exit_code = 4
