"""Unit tests for the XML document parser."""

from __future__ import annotations

import xml.parsers.expat

import pytest

from repro.xmltree.errors import XMLLimitError, XMLSyntaxError
from repro.xmltree.parser import MAX_DEPTH, Document, Element, Text, parse


def _nested(depth: int, tag: str = "a", text: str = "x") -> str:
    """``depth`` nested ``<tag>`` elements around one text node."""
    return f"<{tag}>" * depth + text + f"</{tag}>" * depth


class TestWellFormedDocuments:
    def test_single_empty_root(self):
        document = parse("<root/>")
        assert isinstance(document, Document)
        assert document.root.name == "root"
        assert document.root.children == []

    def test_nested_structure(self):
        document = parse("<a><b><c/></b><d/></a>")
        root = document.root
        assert [c.name for c in root.child_elements()] == ["b", "d"]
        assert root.find("b").find("c") is not None

    def test_text_content(self):
        document = parse("<a>hello</a>")
        assert document.root.text() == "hello"

    def test_mixed_content_preserved(self):
        document = parse("<a>one<b/>two</a>")
        kinds = [type(c).__name__ for c in document.root.children]
        assert kinds == ["Text", "Element", "Text"]

    def test_whitespace_only_text_dropped(self):
        document = parse("<a>\n  <b/>\n</a>")
        assert all(isinstance(c, Element) for c in document.root.children)

    def test_cdata_becomes_text(self):
        document = parse("<a><![CDATA[1 < 2]]></a>")
        assert document.root.text() == "1 < 2"

    def test_attributes(self):
        document = parse('<movie year="1954" genre="mystery"/>')
        assert document.root.attributes == {"year": "1954", "genre": "mystery"}

    def test_prolog_collected(self):
        document = parse(
            '<?xml version="1.0"?><!DOCTYPE a><!-- c --><a/>'
        )
        assert document.doctype == "a"
        assert document.processing_instructions[0].startswith("xml")

    def test_comments_dropped(self):
        document = parse("<a><!-- hidden --><b/></a>")
        assert [c.name for c in document.root.child_elements()] == ["b"]


class TestMalformedDocuments:
    def test_mismatched_end_tag(self):
        with pytest.raises(XMLSyntaxError, match="mismatched end tag"):
            parse("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLSyntaxError, match="unexpected end of document"):
            parse("<a><b>")

    def test_multiple_roots(self):
        with pytest.raises(XMLSyntaxError, match="multiple root"):
            parse("<a/><b/>")

    def test_text_outside_root(self):
        with pytest.raises(XMLSyntaxError, match="outside root"):
            parse("stray<a/>")

    def test_empty_document(self):
        with pytest.raises(XMLSyntaxError, match="no root element"):
            parse("   ")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("</a>")

    def test_doctype_after_root(self):
        with pytest.raises(XMLSyntaxError, match="DOCTYPE after root"):
            parse("<a/><!DOCTYPE a>")


class TestElementHelpers:
    def test_find_returns_first_match(self):
        root = parse("<a><b i='1'/><b i='2'/></a>").root
        assert root.find("b").attributes["i"] == "1"

    def test_find_missing_returns_none(self):
        root = parse("<a/>").root
        assert root.find("zzz") is None

    def test_find_all(self):
        root = parse("<a><b/><c/><b/></a>").root
        assert len(root.find_all("b")) == 2

    def test_iter_is_preorder(self):
        root = parse("<a><b><c/></b><d/></a>").root
        assert [e.name for e in root.iter()] == ["a", "b", "c", "d"]

    def test_text_concatenates_direct_runs(self):
        root = parse("<a>x<b>skip</b>y</a>").root
        assert root.text() == "xy"


class TestRealisticDocument:
    def test_figure1_document(self, figure1_xml):
        document = parse(figure1_xml)
        picture = document.root.find("picture")
        assert picture.attributes["title"] == "Rear Window"
        cast = picture.find("cast")
        stars = cast.find_all("star")
        assert [s.text() for s in stars] == ["Stewart", "Kelly"]


#: Documents the reference parser (expat) rejects as not well-formed:
#: ``]]>`` in character data and characters outside the XML ``Char``
#: production, raw or as character references.
_NON_XML_PROBES = [
    "<a>x ]]> y</a>",
    "<a>x\x01y</a>",
    '<a b="\x02"/>',
    "<a><!-- \x03 --></a>",
    "<a><![CDATA[\x04]]></a>",
    "<a>&#1;</a>",
]


class TestExpatAgreement:
    @pytest.mark.parametrize("probe", _NON_XML_PROBES)
    def test_both_parsers_reject(self, probe):
        with pytest.raises(xml.parsers.expat.ExpatError):
            xml.parsers.expat.ParserCreate().Parse(probe, True)
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse(probe)
        assert excinfo.value.line == 1 and excinfo.value.column > 0

    @pytest.mark.parametrize("probe", _NON_XML_PROBES)
    def test_batch_classifies_the_rejection_as_parse(self, lexicon, probe):
        from repro.runtime import BatchExecutor

        (record,) = BatchExecutor(lexicon).run([("probe", probe)])
        assert not record.ok
        assert record.outcome.stage == "parse"

    def test_allowed_controls_and_cdata_close_lookalikes_still_parse(self):
        document = parse("<a t='x\ty'>1\t2\n3 ]]&gt; ]] ></a>")
        assert document.root.attributes["t"] == "x\ty"
        assert document.root.text() == "1\t2\n3 ]]> ]] >"


class TestDepthLimit:
    """Nesting is bounded so untrusted input never reaches the
    interpreter's recursion limit (a ~1,000-deep document used to)."""

    def test_exactly_max_depth_parses(self):
        document = parse(_nested(MAX_DEPTH))
        element, depth = document.root, 1
        while element.child_elements():
            (element,) = element.child_elements()
            depth += 1
        assert depth == MAX_DEPTH
        assert element.text() == "x"

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1_500, 100_000])
    def test_deeper_nesting_raises_a_positioned_limit_error(self, depth):
        with pytest.raises(XMLLimitError) as excinfo:
            parse(_nested(depth))
        # Positioned at the first start tag past the limit.
        assert excinfo.value.line == 1
        assert excinfo.value.column == 3 * MAX_DEPTH + 1
        assert isinstance(excinfo.value, XMLSyntaxError)

    @pytest.mark.parametrize("depth", [1_500, 100_000])
    def test_batch_classifies_deep_nesting_as_parse(self, lexicon, depth):
        from repro.runtime import BatchExecutor

        (record,) = BatchExecutor(lexicon).run([("deep", _nested(depth))])
        assert not record.ok
        assert record.outcome.stage == "parse"
        assert record.error.startswith("XMLLimitError")

    def test_max_depth_document_disambiguates(self, lexicon):
        from repro.runtime import BatchExecutor

        xml = _nested(MAX_DEPTH, tag="movie", text="cast")
        (record,) = BatchExecutor(lexicon).run([("deep", xml)])
        assert record.ok, record.error
