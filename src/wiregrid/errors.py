"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and parse problems are
exit 1, numeric/domain problems are exit 2, I/O problems are exit 3.
"""


class WiregridError(Exception):
    """Base class for all package errors."""


class ConfigError(WiregridError):
    """An experiment configuration violates an invariant."""


class ConfigParseError(ConfigError):
    """A config file or override string could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(WiregridError):
    """An input is outside the mathematical domain of an operation."""


class SamplingError(WiregridError):
    """A sampled profile or pattern is too coarse for the requested result."""


class BandRangeError(WiregridError):
    """An integration band extends beyond the sampled pattern."""

