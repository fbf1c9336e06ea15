"""Exception hierarchy shared across the toolkit."""


class BuildMetricsError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BuildMetricsError):
    """Structural problem (e.g. unbalanced braces) the parser cannot skim over."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        pos = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{pos}")
        self.line = line
        self.column = column


class LexicalError(ParseError):
    """Unterminated comment/string or illegal character; carries position."""


class ModelError(BuildMetricsError):
    """Code-model misuse: a file path given twice."""


class DataError(BuildMetricsError):
    """Dataset assembly or CSV parsing problem."""


class SelectionError(BuildMetricsError):
    """Feature selection cannot run (e.g. constant label)."""


class EvaluationError(BuildMetricsError):
    """Classifier training or cross-validation cannot run."""
