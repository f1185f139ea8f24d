"""Property: a parse never returns two adjacent text nodes, however the
character data is split by comments, processing instructions and CDATA
sections."""

from hypothesis import given, settings

from repro.xmlmodel import parse, serialize
from repro.xmlmodel.model import Element, Text
from tests.property.strategies import marked_up_xml


def _text_siblings_apart(element: Element) -> bool:
    previous_was_text = False
    for child in element.children:
        is_text = isinstance(child, Text)
        if is_text and (previous_was_text or not child.value):
            return False
        if not is_text and not _text_siblings_apart(child):
            return False
        previous_was_text = is_text
    return True


class TestNoAdjacentText:
    @given(marked_up_xml())
    @settings(max_examples=200, deadline=None)
    def test_parse_never_yields_adjacent_text(self, text):
        assert _text_siblings_apart(parse(text).root)
        assert _text_siblings_apart(parse(text, preserve_space=True).root)

    @given(marked_up_xml())
    @settings(max_examples=100, deadline=None)
    def test_reparse_of_the_serialization_is_stable(self, text):
        once = serialize(parse(text), indent=0)
        assert serialize(parse(once), indent=0) == once
