"""A streaming tokenizer for XML 1.0 documents.

The lexer turns raw XML text into a flat sequence of :class:`Token`
objects (tag opens/closes, attributes folded into tag tokens, character
data, CDATA sections, comments, processing instructions, and doctype
declarations).  The parser in :mod:`repro.xmltree.parser` consumes these
tokens to build a DOM.

The implementation is a hand-written scanner: no regular-expression
backtracking, a single pass over the input, and precise line/column
tracking for error messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from .errors import XMLSyntaxError
from .escape import NON_XML_CHAR, unescape

#: Characters allowed to start an XML name (ASCII subset plus common
#: Unicode letters; intentionally permissive for real-world documents).
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")


def is_name_start(ch: str) -> bool:
    """Return True if ``ch`` may start an XML name."""
    return ch.isalpha() or ch in _NAME_START_EXTRA


def is_name_char(ch: str) -> bool:
    """Return True if ``ch`` may appear inside an XML name."""
    return ch.isalnum() or ch in _NAME_EXTRA


class TokenType(enum.Enum):
    """Kinds of lexical tokens produced by :class:`XMLLexer`."""

    START_TAG = "start_tag"          # <name attr="v">
    END_TAG = "end_tag"              # </name>
    EMPTY_TAG = "empty_tag"          # <name attr="v"/>
    TEXT = "text"                    # character data (entities resolved)
    CDATA = "cdata"                  # <![CDATA[...]]>
    COMMENT = "comment"              # <!-- ... -->
    PI = "pi"                        # <?target data?>
    DOCTYPE = "doctype"              # <!DOCTYPE ...>
    EOF = "eof"


@dataclass
class Token:
    """One lexical token.

    ``value`` holds the tag/PI name or the text content; ``attributes``
    is populated only for START_TAG / EMPTY_TAG tokens and preserves the
    attribute order of the source document.
    """

    type: TokenType
    value: str
    line: int
    column: int
    attributes: list[tuple[str, str]] = field(default_factory=list)


class XMLLexer:
    """Single-pass scanner over an XML source string.

    Parameters
    ----------
    source:
        The complete XML document text.
    entities:
        Optional additional general entities (name -> replacement text),
        typically harvested from an internal DTD subset.
    """

    def __init__(self, source: str, entities: dict[str, str] | None = None):
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1
        self.entities: dict[str, str] = dict(entities or {})

    # -- low-level cursor helpers -------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self._pos + offset
        return self._src[idx] if idx < len(self._src) else ""

    def _advance(self, count: int = 1) -> str:
        """Consume ``count`` characters, maintaining line/column."""
        chunk = self._src[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
        self._pos += count
        return chunk

    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self._line, self._col)

    def _error_at(self, index: int, message: str) -> XMLSyntaxError:
        """A syntax error positioned at absolute source offset ``index``."""
        line = self._src.count("\n", 0, index) + 1
        column = index - self._src.rfind("\n", 0, index)
        return XMLSyntaxError(message, line, column)

    def _expect(self, literal: str) -> None:
        if not self._src.startswith(literal, self._pos):
            raise self._error(f"expected '{literal}'")
        self._advance(len(literal))

    def _skip_whitespace(self) -> None:
        while self._peek() and self._peek() in " \t\r\n":
            self._advance()

    def _read_until(self, terminator: str, error: str) -> str:
        """Consume and return everything up to ``terminator`` (consumed)."""
        end = self._src.find(terminator, self._pos)
        if end == -1:
            raise self._error(error)
        text = self._src[self._pos : end]
        self._advance(end - self._pos + len(terminator))
        return text

    def _read_name(self) -> str:
        if not is_name_start(self._peek()):
            raise self._error(f"invalid name start character {self._peek()!r}")
        start = self._pos
        self._advance()
        while is_name_char(self._peek()):
            self._advance()
        return self._src[start : self._pos]

    # -- token production ----------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until EOF.  The final token is always EOF.

        One regex scan up front rejects any raw character outside the
        XML ``Char`` production, wherever it sits (text, attribute
        values, comments, CDATA, PIs).
        """
        bad = NON_XML_CHAR.search(self._src)
        if bad is not None:
            raise self._error_at(
                bad.start(),
                f"character {bad.group()!r} is not allowed in XML",
            )
        while self._pos < len(self._src):
            line, col = self._line, self._col
            if self._peek() == "<":
                yield self._lex_markup(line, col)
            else:
                yield self._lex_text(line, col)
        yield Token(TokenType.EOF, "", self._line, self._col)

    def _lex_text(self, line: int, col: int) -> Token:
        end = self._src.find("<", self._pos)
        if end == -1:
            end = len(self._src)
        start = self._pos
        raw = self._src[start:end]
        close = raw.find("]]>")
        if close != -1:
            raise self._error_at(
                start + close, "']]>' not allowed in character data"
            )
        self._advance(end - start)
        try:
            text = unescape(raw, self.entities)
        except XMLSyntaxError as exc:
            # Re-raise with position, preserving the subclass (e.g.
            # XMLEntityError) so callers can catch specific failures.
            raise type(exc)(str(exc), line, col) from None
        return Token(TokenType.TEXT, text, line, col)

    def _lex_markup(self, line: int, col: int) -> Token:
        nxt = self._peek(1)
        if nxt == "/":
            return self._lex_end_tag(line, col)
        if nxt == "?":
            return self._lex_pi(line, col)
        if nxt == "!":
            if self._src.startswith("<!--", self._pos):
                return self._lex_comment(line, col)
            if self._src.startswith("<![CDATA[", self._pos):
                return self._lex_cdata(line, col)
            if self._src.startswith("<!DOCTYPE", self._pos):
                return self._lex_doctype(line, col)
            raise self._error("unrecognized markup declaration")
        return self._lex_start_tag(line, col)

    def _lex_comment(self, line: int, col: int) -> Token:
        self._advance(4)  # <!--
        body = self._read_until("-->", "unterminated comment")
        if "--" in body:
            raise XMLSyntaxError("'--' not allowed inside comment", line, col)
        return Token(TokenType.COMMENT, body, line, col)

    def _lex_cdata(self, line: int, col: int) -> Token:
        self._advance(9)  # <![CDATA[
        body = self._read_until("]]>", "unterminated CDATA section")
        return Token(TokenType.CDATA, body, line, col)

    def _lex_pi(self, line: int, col: int) -> Token:
        self._advance(2)  # <?
        body = self._read_until("?>", "unterminated processing instruction")
        return Token(TokenType.PI, body, line, col)

    def _lex_doctype(self, line: int, col: int) -> Token:
        self._advance(9)  # <!DOCTYPE
        depth = 1
        start = self._pos
        while depth:
            ch = self._peek()
            if not ch:
                raise self._error("unterminated DOCTYPE declaration")
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            self._advance()
        body = self._src[start : self._pos - 1].strip()
        self._harvest_internal_entities(body)
        return Token(TokenType.DOCTYPE, body, line, col)

    def _harvest_internal_entities(self, doctype_body: str) -> None:
        """Collect ``<!ENTITY name "value">`` from an internal DTD subset."""
        cursor = 0
        while True:
            idx = doctype_body.find("<!ENTITY", cursor)
            if idx == -1:
                return
            end = doctype_body.find(">", idx)
            if end == -1:
                return
            decl = doctype_body[idx + len("<!ENTITY") : end].strip()
            cursor = end + 1
            parts = decl.split(None, 1)
            if len(parts) != 2:
                continue
            name, rest = parts
            rest = rest.strip()
            if len(rest) >= 2 and rest[0] in "\"'" and rest[-1] == rest[0]:
                self.entities[name] = rest[1:-1]

    def _lex_end_tag(self, line: int, col: int) -> Token:
        self._advance(2)  # </
        name = self._read_name()
        self._skip_whitespace()
        self._expect(">")
        return Token(TokenType.END_TAG, name, line, col)

    def _lex_start_tag(self, line: int, col: int) -> Token:
        self._advance(1)  # <
        name = self._read_name()
        attributes = self._lex_attributes()
        self._skip_whitespace()
        if self._peek() == "/":
            self._advance()
            self._expect(">")
            return Token(TokenType.EMPTY_TAG, name, line, col, attributes)
        self._expect(">")
        return Token(TokenType.START_TAG, name, line, col, attributes)

    def _lex_attributes(self) -> list[tuple[str, str]]:
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch in (">", "/", ""):
                return attributes
            name = self._read_name()
            if name in seen:
                raise self._error(f"duplicate attribute '{name}'")
            seen.add(name)
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in "\"'":
                raise self._error("attribute value must be quoted")
            self._advance()
            raw = self._read_until(quote, "unterminated attribute value")
            if "<" in raw:
                raise self._error(f"'<' not allowed in attribute value of '{name}'")
            try:
                value = unescape(raw, self.entities)
            except XMLSyntaxError as exc:
                raise type(exc)(str(exc), self._line, self._col) from None
            attributes.append((name, value))


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: return the full token list for ``source``."""
    return list(XMLLexer(source).tokens())
