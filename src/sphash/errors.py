"""Exception types shared across the package."""


class SphashError(Exception):
    """Base class for all library errors."""


class ParameterError(SphashError, ValueError):
    """An argument is outside its documented domain."""


class ShapeError(ParameterError):
    """Array dimensions do not line up."""


class LabelError(ParameterError):
    """A label matrix violates its contract (empty row, multi-hot where unsupported)."""


class CapacityError(ParameterError):
    """Requested more distinct binary codes than the code length can hold."""


class FormatError(SphashError, IOError):
    """A binary file does not match its declared on-disk layout."""


class BadMagicError(FormatError):
    """Leading magic bytes identify a different (or corrupt) file type."""


class TruncatedPayloadError(FormatError):
    """File ends before the payload declared in its header."""


class DimensionOverflowError(FormatError):
    """Header declares dimensions too large to be a plausible payload."""


class CompatibilityError(SphashError, ValueError):
    """Checkpoint and dataset disagree on code length or feature dimensions."""


class TrainingDivergedError(SphashError, ArithmeticError):
    """A loss became non-finite during training."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch

    def __reduce__(self):
        # the default rebuilds from self.args, which hold the message alone
        return type(self), (self.args[0], self.epoch, self.batch)
