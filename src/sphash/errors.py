"""Exception types shared across the package, one per CLI exit code.

``cli.main`` maps ``ParameterError`` to exit 2, ``FormatError`` (an
``OSError``, like every I/O failure) to 3, ``TrainingDivergedError`` to 4
and ``CompatibilityError`` to 5. Each message names the check that failed.
"""


class SphashError(Exception):
    """Base class for all library errors."""


class ParameterError(SphashError, ValueError):
    """An argument, array shape or label matrix is outside its documented domain."""


class FormatError(SphashError, IOError):
    """A file does not match its declared on-disk layout."""


class CompatibilityError(SphashError, ValueError):
    """Checkpoint and dataset disagree on code length or feature dimensions."""


class TrainingDivergedError(SphashError, ArithmeticError):
    """A loss became non-finite during training; the message says at which epoch and batch."""
