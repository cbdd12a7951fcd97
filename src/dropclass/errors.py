"""Exception hierarchy shared across the package."""


class DropClassError(Exception):
    """Base class for all package errors."""


class ValidationError(DropClassError):
    """A spec/config object violates one of its invariants.

    ``field`` names the spec field whose value it rejects, if one does; the
    message is then ``requirement``, what that value must satisfy, after the
    field's name ("batch_size must be >= 2, got 1")."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field} {message}")
        self.field = field
        self.requirement = message


class SplitError(ValidationError):
    """A corpus split would leave too few classes on one side."""


class TrialError(ValidationError):
    """A trial list cannot be constructed from the given split."""


class FormatError(DropClassError):
    """A binary file is malformed; carries the offending byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ShapeError(DropClassError):
    """Array dimensions do not match the model."""


class MaskError(DropClassError):
    """An active-class subset is empty or out of range."""


class EmptyDataError(DropClassError):
    """An operation received no utterances to work on."""


class NumericError(DropClassError):
    """A non-finite value appeared where finite math was expected."""


class ConfigError(ValidationError):
    """A run configuration file or override is invalid."""
