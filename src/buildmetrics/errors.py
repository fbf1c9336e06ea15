"""Exceptions shared across the toolkit, one class per exit code of the CLI: cli.UsageError, raised in cli
alone, exits 1, DataError 2 and BuildMetricsError itself (an invariant violation) 3. Each condition is
checked once, where input enters; the functions behind those checks trust their callers."""


class BuildMetricsError(Exception):
    """Base class for all toolkit errors; raised itself for an invariant violation."""


class ParseError(BuildMetricsError):
    """A file that lexer.tokenize or the javaparse parser cannot read: an unterminated comment or string,
    an illegal character or an unbalanced bracket, at its line and column if it has one; extract logs it as excluded."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        pos = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{pos}")
        self.line = line
        self.column = column


class DataError(BuildMetricsError):
    """Input data that cannot be worked with, raised where it enters: by cli, dataset.parse_manifest, assemble
    and read_csv, metrics.table_rows, parse_metrics_csv and finite_floats, and the dataset checks of
    featsel.discretize and tree.cross_validate."""
