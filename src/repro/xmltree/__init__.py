"""From-scratch XML substrate: lexer, parser, DOM, DTD, serialization.

Public surface::

    from repro.xmltree import parse, parse_file, build_tree
    document = parse("<films><picture title='Rear Window'/></films>")
    tree = build_tree(document.root)
"""

from .dom import NodeKind, XMLNode, XMLTree, build_tree
from .dtd import DTD, parse_dtd
from .errors import (
    DTDError,
    TreeError,
    ValidationError,
    XMLEntityError,
    XMLError,
    XMLLimitError,
    XMLSyntaxError,
)
from .lexer import Token, TokenType, XMLLexer, tokenize
from .parser import Document, Element, Text, XMLParser, parse, parse_file
from .xpath import XPathSyntaxError, select, select_one
from .serializer import (
    serialize_document,
    serialize_element,
    serialize_semantic_tree,
)

__all__ = [
    "DTD",
    "DTDError",
    "Document",
    "Element",
    "NodeKind",
    "Text",
    "Token",
    "TokenType",
    "TreeError",
    "ValidationError",
    "XMLEntityError",
    "XMLError",
    "XMLLexer",
    "XMLLimitError",
    "XMLNode",
    "XMLParser",
    "XMLSyntaxError",
    "XMLTree",
    "XPathSyntaxError",
    "build_tree",
    "parse",
    "parse_dtd",
    "parse_file",
    "serialize_document",
    "serialize_element",
    "select",
    "select_one",
    "serialize_semantic_tree",
    "tokenize",
]
