"""Hypothesis strategies for the repro test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmlmodel.model import Document, Element, Text

# Tag/attribute names: simple XML names (plain-letter alphabet; avoids a
# hypothesis from_regex shrinking bug seen with mixed-class regexes).
names = st.text(alphabet="abcdefghij", min_size=1, max_size=8)

# Characters XML 1.0 can carry (its ``Char`` production): no surrogates,
# no C0 controls other than tab, newline and carriage return, and not
# U+FFFE/U+FFFF.  Tab, newline and carriage return are drawn on purpose:
# they survive a round trip only because the serializer writes them as
# character references where a parser would normalise them.
xml_characters = st.characters(
    exclude_categories=("Cs", "Cc"),
    include_characters="\t\n\r",
    exclude_characters="\ufffe\uffff",
)

# Text content, with at least one non-space character so the parser's
# whitespace-dropping cannot erase it on a round trip.
texts = st.text(alphabet=xml_characters, min_size=1, max_size=20).filter(
    lambda value: value.strip()
)

attribute_values = st.text(alphabet=xml_characters, max_size=20)


@st.composite
def elements(draw, max_depth: int = 3, max_children: int = 4) -> Element:
    """A random model element tree.

    No two adjacent text children are generated (adjacent PCDATA nodes
    legitimately merge on a parse round trip).
    """
    element = Element(draw(names))
    for attr_name in draw(st.lists(names, max_size=3, unique=True)):
        element.set_attribute(attr_name, draw(attribute_values))
    if max_depth > 0:
        children = draw(
            st.lists(
                st.one_of(
                    texts.map(Text),
                    elements(max_depth=max_depth - 1, max_children=max_children),
                ),
                max_size=max_children,
            )
        )
        previous_was_text = False
        for child in children:
            is_text = isinstance(child, Text)
            if is_text and previous_was_text:
                continue
            element.append_child(child)
            previous_was_text = is_text
    return element


@st.composite
def documents(draw) -> Document:
    return Document(draw(elements()))


def _escaped(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Markup that may split one run of character data: comments, processing
# instructions, and CDATA sections (whose content joins the run).
_splitting_markup = st.one_of(
    st.sampled_from(["<!---->", "<!-- note -->", "<?pi?>", "<?pi some data?>"]),
    texts.map(lambda value: f"<![CDATA[{value.replace(']]>', '')}]]>"),
)


@st.composite
def marked_up_xml(draw, max_depth: int = 2) -> str:
    """XML text of a random element whose content interleaves text runs,
    comments, processing instructions and CDATA sections, so that one
    run of character data often reaches the parser in several pieces."""
    name = draw(names)
    pieces = draw(
        st.lists(
            st.one_of(
                texts.map(_escaped),
                _splitting_markup,
                *([marked_up_xml(max_depth=max_depth - 1)] if max_depth > 0 else []),
            ),
            max_size=6,
        )
    )
    return f"<{name}>{''.join(pieces)}</{name}>"
