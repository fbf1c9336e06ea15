"""Exceptions shared across the toolkit, one class per exit code of the CLI:
cli.UsageError exits 1, DataError (data it cannot work with) 2, and
BuildMetricsError itself (an invariant violation) 3. ParseError carries a
position; extract catches it per file and logs the file as excluded."""


class BuildMetricsError(Exception):
    """Base class for all toolkit errors; raised itself for an invariant violation."""


class ParseError(BuildMetricsError):
    """A file the lexer or parser cannot read: an unterminated comment or string, an
    illegal character, or a structural problem (e.g. unbalanced braces)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        pos = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{pos}")
        self.line = line
        self.column = column


class DataError(BuildMetricsError):
    """Input data that cannot be worked with: dataset assembly, CSV parsing,
    feature selection or cross-validation."""
