"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class ParseError(ValueError):
    """An input file line could not be parsed; carries the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigError(ValueError):
    """Bad run configuration (unknown key, out-of-range value, bad mode)."""


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, truncated, or of an unsupported version."""


class NonFiniteError(FloatingPointError):
    """A training loss or gradient is NaN or Inf; key names the batch."""

    def __init__(self, message: str, key: tuple):
        super().__init__(message)
        self.key = key
