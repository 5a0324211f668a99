"""Exception taxonomy shared across the package.

Two broad families matter to callers: ``ValidationFailure`` means the
request itself was bad (fixable by the user; CLI exit code 1), while
``RuntimeFailure`` means a valid request failed while executing
(CLI exit code 2).
"""


class FairsynthError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(FairsynthError):
    """Bad input: flags, metadata, file contents, or violated preconditions."""


class RuntimeFailure(FairsynthError):
    """A valid request failed partway through execution."""


# ingestion / schema

class EmptyTable(ValidationFailure):
    pass


class DuplicateColumnName(ValidationFailure):
    pass


class ParseError(ValidationFailure):
    """A cell or row that cannot be read; ``line`` is the physical line of a
    row-level error, None for a cell-level one."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MetadataMismatch(ValidationFailure):
    pass


class LabelNotBinary(ValidationFailure):
    pass


class InsufficientRows(ValidationFailure):
    pass


# synthesizers

class TooFewValues(ValidationFailure):
    pass


class NotFitted(ValidationFailure):
    pass


class SchemaMismatch(ValidationFailure):
    pass


class BackendFailed(RuntimeFailure):
    def __init__(self, exit_code: int, stderr_excerpt: str):
        super().__init__(f"backend exited with code {exit_code}: {stderr_excerpt}")
        self.exit_code = exit_code
        self.stderr_excerpt = stderr_excerpt


class Timeout(RuntimeFailure):
    pass


# evaluation

class EmptyColumn(ValidationFailure):
    pass


class EmptyDataset(ValidationFailure):
    pass


class LengthMismatch(ValidationFailure):
    pass


class DimensionMismatch(ValidationFailure):
    pass


class NonFiniteLoss(RuntimeFailure):
    pass


class QualityOutOfRange(ValidationFailure):
    pass


# orchestration

class AllIterationsFailed(RuntimeFailure):
    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history or []
