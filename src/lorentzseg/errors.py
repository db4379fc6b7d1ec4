"""Exception types shared across the package.

The CLI maps these onto exit codes: bad arguments or invalid values exit
with 2, unreadable or malformed input files with 3, failed numerical
checks with 1.
"""


class UsageError(ValueError):
    """Caller passed arguments that violate an operation's contract."""


class DomainError(ValueError):
    """Numerically invalid input, e.g. a point off the manifold or a
    degenerate configuration where a formula is undefined."""


class ParseError(Exception):
    """A data file could not be parsed; message carries path and line."""


class OracleError(RuntimeError):
    """A verification oracle hit a non-finite evaluation."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"loss became non-finite at step {step}")
