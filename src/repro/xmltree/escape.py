"""XML character data escaping and entity resolution.

Implements the five predefined XML 1.0 entities plus numeric character
references (decimal ``&#NN;`` and hexadecimal ``&#xNN;``).  The functions
here are pure and reusable by both the lexer (unescaping input) and the
serializer (escaping output).
"""

from __future__ import annotations

import re

from .errors import XMLEntityError

#: One code point outside the XML 1.0 ``Char`` production: C0 controls
#: other than tab/LF/CR, surrogates, and U+FFFE/U+FFFF.  Such
#: characters are rejected raw and as character references.
NON_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

#: The five entities predefined by the XML 1.0 specification.
PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_ESCAPE_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ESCAPE_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(text: str) -> str:
    """Escape character data for use as XML element content."""
    return "".join(_ESCAPE_TEXT.get(ch, ch) for ch in text)


def escape_attribute(text: str) -> str:
    """Escape character data for use inside a double-quoted attribute."""
    return "".join(_ESCAPE_ATTR.get(ch, ch) for ch in text)


def resolve_entity(name: str, extra_entities: dict[str, str] | None = None) -> str:
    """Resolve a single entity reference body (without ``&`` and ``;``).

    Supports predefined entities, user-supplied general entities (e.g. from
    a DTD), and numeric character references.  Raises
    :class:`XMLEntityError` for anything unresolvable.
    """
    if name.startswith("#"):
        return _resolve_char_reference(name)
    if name in PREDEFINED_ENTITIES:
        return PREDEFINED_ENTITIES[name]
    if extra_entities and name in extra_entities:
        return extra_entities[name]
    raise XMLEntityError(f"undefined entity reference '&{name};'")


def _resolve_char_reference(body: str) -> str:
    """Resolve ``#NN`` or ``#xNN`` numeric character reference bodies."""
    digits = body[1:]
    try:
        if digits[:1] in ("x", "X"):
            codepoint = int(digits[1:], 16)
        else:
            codepoint = int(digits, 10)
    except ValueError:
        raise XMLEntityError(f"malformed character reference '&{body};'") from None
    if not 0 < codepoint <= 0x10FFFF:
        raise XMLEntityError(f"character reference out of range '&{body};'")
    char = chr(codepoint)
    if NON_XML_CHAR.match(char):
        raise XMLEntityError(
            f"character reference to a non-XML character '&{body};'"
        )
    return char


def unescape(text: str, extra_entities: dict[str, str] | None = None) -> str:
    """Replace every entity/character reference in ``text`` with its value."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XMLEntityError("unterminated entity reference")
        out.append(resolve_entity(text[i + 1 : end], extra_entities))
        i = end + 1
    return "".join(out)
