"""Exception hierarchy shared across the toolkit.

ConfigError maps to CLI exit code 2, DataError to exit code 3.
"""


class CanclustError(Exception):
    pass


class ConfigError(CanclustError):
    """Invalid run configuration (bad parameters, impossible requests)."""


class DataError(CanclustError):
    """Problem with input data (files, captures, matrices)."""


class ParseError(DataError):
    """Malformed capture file; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class InsufficientOverlapError(DataError):
    """Signals share fewer than two common grid points."""


class DegenerateCaptureError(DataError):
    """Every signal in the capture is constant; nothing to cluster."""

