"""Exception hierarchy for the XML substrate.

Every error raised while lexing, parsing, validating, or navigating XML
documents derives from :class:`XMLError`, so callers can catch a single
base class at API boundaries.
"""

from __future__ import annotations


class XMLError(Exception):
    """Base class for all XML substrate errors."""


class XMLSyntaxError(XMLError):
    """Raised when the input text is not well-formed XML.

    Carries the 1-based ``line`` and ``column`` of the offending character
    so error messages can point at the exact location in the source.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XMLEntityError(XMLSyntaxError):
    """Raised for undefined or malformed entity references."""


class XMLLimitError(XMLSyntaxError):
    """Raised when a document exceeds a fixed parser limit.

    The input may be well-formed, but it is refused (e.g. elements
    nested deeper than :data:`repro.xmltree.parser.MAX_DEPTH`) so that
    untrusted input can never reach the interpreter's recursion limit.
    """


class DTDError(XMLError):
    """Raised when a DTD declaration cannot be parsed."""


class ValidationError(XMLError):
    """Raised when a document does not conform to its DTD grammar."""


class TreeError(XMLError):
    """Raised for invalid tree operations (bad indices, detached nodes)."""
