"""Exception hierarchy shared across the toolkit, checked(), for records that raise it when built, and is_name().

ConfigError maps to CLI exit code 2, DataError to exit code 3.
"""

import re


def checked(fields):
    """fields, a NamedTuple class, as a subclass of the same name that builds every instance through _check().

    _check() raises on bad fields, or returns the record to keep: itself, or one holding its fields converted.
    A call, _make(), _replace(), a copy and unpickling all build through it.
    """
    def __new__(cls, *args, **kwargs):
        return fields.__new__(cls, *args, **kwargs)._check()
    __new__.__wrapped__ = fields.__new__  # inspect.signature() shows the fields and their defaults

    return type(fields.__name__, (fields,), {"__slots__": (), "__new__": __new__, "__doc__": fields.__doc__,
                                            "__module__": fields.__module__,
                                            "_make": classmethod(lambda cls, iterable: cls(*iterable))})


def is_name(text):
    """Whether text is a string of letters, digits, '_', '-' and '.': a name that can stand in a file name
    without leaving its directory, as an attack kind and a synthetic capture's id do."""
    return isinstance(text, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", text) is not None


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

