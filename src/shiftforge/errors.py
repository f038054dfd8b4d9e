"""Exception types shared across the toolkit."""


class ShiftforgeError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ShiftforgeError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidSpec(ShiftforgeError):
    """A specification object violates its own invariants."""


class InvalidInput(ShiftforgeError):
    """An input value is outside the domain of an operation."""


class MalformedInput(InvalidInput):
    """A tiling that fails validation: a tile index out of range or a color mismatch."""


class UnsupportedSpec(ShiftforgeError):
    """The operation is well-defined but deliberately not implemented
    for this kind of input (e.g. lifting a stream-backed subshift)."""
