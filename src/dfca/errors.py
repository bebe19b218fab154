"""Exception types shared across the package."""


class DfcaError(Exception):
    """Base class for every error this package raises deliberately."""


class FormulaSyntaxError(DfcaError):
    """Formula or statement text that cannot be parsed.

    Carries the offset of the failure, counted in characters from the
    start of the text, and, when known, a description of what would have
    been accepted there.
    """

    def __init__(self, message, offset, expected=None):
        detail = f"{message} at offset {offset}"
        if expected:
            detail = f"{detail} (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class FileFormatError(DfcaError):
    """A context, conditional, or order file that violates its format."""

    def __init__(self, message, path=None, line=None):
        location = ""
        if path is not None:
            location += f"{path}:"
        if line is not None:
            location += f"{line}:"
        super().__init__(f"{location} {message}" if location else message)
        self.path = path
        self.line = line


class BindingError(DfcaError):
    """A formula mentions an attribute, object, or atom that does not exist."""


class StructureError(DfcaError):
    """Inputs that violate structural preconditions.

    Out-of-range indices, duplicate names, mismatched universes, cyclic
    order pairs, non-convex rankings, and similar defects.
    """


class ModularityError(StructureError):
    """An operation that needs a modular order received a non-modular one."""


class ValidityError(DfcaError):
    """A conditional set that no ranking of the given context can satisfy."""


class CapacityError(DfcaError):
    """An exhaustive enumeration that would exceed its configured bound."""


class UnsupportedStateError(DfcaError):
    """An interpretation state that cannot be carried into a derived context."""
