"""The expat tree builder: the internal subset, entity refusal, text runs,
error locations, and the character and name checks it exports."""

import time

import pytest

from repro.errors import XmlParseError
from repro.xmlmodel import parse
from repro.xmlmodel.model import Text
from repro.xmlmodel.parser import is_xml_chars, is_xml_name

BILLION_LAUGHS = """<!DOCTYPE lolz [
<!ENTITY lol "lol">
<!ENTITY lol1 "&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;">
<!ENTITY lol2 "&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;&lol1;">
<!ENTITY lol3 "&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;&lol2;">
<!ENTITY lol4 "&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;&lol3;">
<!ENTITY lol5 "&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;&lol4;">
<!ENTITY lol6 "&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;&lol5;">
<!ENTITY lol7 "&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;&lol6;">
<!ENTITY lol8 "&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;&lol7;">
<!ENTITY lol9 "&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;&lol8;">
]>
<lolz>&lol9;</lolz>"""


class TestInternalSubset:
    def test_bracket_inside_a_comment_stays_in_the_subset(self):
        document = parse("<!DOCTYPE a [<!-- x]y --><!ELEMENT a (#PCDATA)>]><a>t</a>")
        assert document.dtd.elements["a"].content.kind == "PCDATA"
        assert document.root.text() == "t"

    def test_bracket_inside_an_attlist_default_stays_in_the_subset(self):
        document = parse(
            '<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ATTLIST a t CDATA "x]y">]><a>t</a>'
        )
        assert document.dtd.attributes["a"]["t"].default_value == "x]y"

    def test_declared_defaults_are_not_materialised(self):
        document = parse('<!DOCTYPE a [<!ELEMENT a EMPTY><!ATTLIST a t CDATA "d">]><a/>')
        assert document.root.attributes == {}

    def test_policy_derives_from_the_subset(self):
        document = parse(
            "<!DOCTYPE a [<!ELEMENT a EMPTY><!ATTLIST a key ID #REQUIRED to IDREFS #IMPLIED>]>"
            '<a key="k" to="p q"/>'
        )
        assert document.id_attribute == "key"
        assert document.root.references["to"].targets == ["p", "q"]

    def test_doctype_without_a_subset_has_no_dtd(self):
        assert parse("<!DOCTYPE a><a/>").dtd is None


class TestRefusals:
    def test_billion_laughs_is_refused_at_the_first_declaration(self):
        started = time.perf_counter()
        with pytest.raises(XmlParseError, match="entity declarations are not supported") as info:
            parse(BILLION_LAUGHS)
        assert time.perf_counter() - started < 1.0
        assert "'lol'" in str(info.value)
        assert info.value.line == 2

    def test_parameter_entity_declaration_is_refused(self):
        with pytest.raises(XmlParseError, match="entity declarations"):
            parse('<!DOCTYPE a [<!ENTITY % p "x">]><a/>')

    @pytest.mark.parametrize(
        "doctype",
        ['<!DOCTYPE a SYSTEM "a.dtd">', '<!DOCTYPE a PUBLIC "-//x//EN" "a.dtd">'],
    )
    def test_external_doctype_is_refused(self, doctype):
        with pytest.raises(XmlParseError, match="external DTD subsets are not supported"):
            parse(doctype + "<a/>")

    @pytest.mark.parametrize(
        "text", ["<a>\x01</a>", "<a>&#1;</a>", "<a>&#x1F;</a>", '<a b="\x07"/>']
    )
    def test_c0_control_characters_are_refused(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_lone_surrogate_is_refused(self):
        with pytest.raises(XmlParseError):
            parse("<a>\ud800</a>")

    def test_tab_newline_and_return_references_survive(self):
        document = parse('<a x="&#9;&#10;&#13;">&#13;x</a>')
        assert document.root.attributes["x"].value == "\t\n\r"
        assert document.root.text() == "\rx"


class TestTextRuns:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("<a>x<!--c-->y</a>", "xy"),
            ("<a>x<?p d?>y</a>", "xy"),
            ("<a>x<![CDATA[<]]>y</a>", "x<y"),
            ("<a>x&amp;<!--c-->&#65;y</a>", "x&Ay"),
        ],
    )
    def test_text_split_by_markup_is_one_node(self, text, expected):
        children = parse(text).root.children
        assert len(children) == 1
        assert isinstance(children[0], Text)
        assert children[0].value == expected

    def test_whitespace_run_split_by_a_comment_is_dropped_whole(self):
        assert parse("<a> <!--c--> <b/></a>").root.children[0].name == "b"

    def test_preserved_whitespace_run_is_one_node(self):
        children = parse("<a> <!--c--> <b/></a>", preserve_space=True).root.children
        assert [type(child).__name__ for child in children] == ["Text", "Element"]
        assert children[0].value == "  "

    def test_no_text_node_without_characters(self):
        assert parse("<a><!--c--></a>", preserve_space=True).root.children == []


class TestErrorLocations:
    def test_column_is_one_based(self):
        with pytest.raises(XmlParseError) as info:
            parse("<a/><b/>")
        assert (info.value.line, info.value.column) == (1, 5)

    def test_line_and_column_after_a_newline(self):
        with pytest.raises(XmlParseError, match="expected </b>") as info:
            parse("<a>\n<b></c></a>")
        assert (info.value.line, info.value.column) == (2, 6)

    def test_unknown_entity_is_named(self):
        with pytest.raises(XmlParseError, match="unknown entity &nope;"):
            parse("<a>&nope;</a>")

    def test_angle_bracket_in_attribute_is_named(self):
        with pytest.raises(XmlParseError, match="'<' is not allowed inside an attribute value"):
            parse('<a x="<"/>')

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "expected root element"),
            ("<a><b></b>", "unexpected end of input inside <a>"),
            ("<a", "unterminated"),
            ("<a><![CDATA[x", "unterminated CDATA section"),
        ],
    )
    def test_truncated_input(self, text, message):
        with pytest.raises(XmlParseError, match=message):
            parse(text)


class TestCharacterAndNameChecks:
    @pytest.mark.parametrize("value", ["", "plain", "\t\n\r", "é €", "\U0001f600", "\ud7ff"])
    def test_xml_characters(self, value):
        assert is_xml_chars(value)

    @pytest.mark.parametrize("value", ["\x00", "x\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
    def test_non_xml_characters(self, value):
        assert not is_xml_chars(value)

    @pytest.mark.parametrize("name", ["a", "_x", "a:b", "a-b.c1", "été", "a\u00b7b"])
    def test_names(self, name):
        assert is_xml_name(name)

    @pytest.mark.parametrize(
        "name", ["", "1bad", "-a", "a b", 'a x="1"', "a/", "a>", "\u0132", "a\x01"]
    )
    def test_non_names(self, name):
        assert not is_xml_name(name)
