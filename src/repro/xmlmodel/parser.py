"""Parse XML text into model trees: a tree builder over stdlib expat.

:mod:`pyexpat` tokenizes the input, checks that it is well-formed
XML 1.0, and expands character references and the five predefined
entities.  :class:`XmlParser` turns expat's start-tag, end-tag and
character-data events into :class:`~repro.xmlmodel.model.Element` and
:class:`~repro.xmlmodel.model.Text` nodes, and adds these rules:

* character data is buffered up to the next element boundary, so text
  split by a comment, a processing instruction or a CDATA section
  becomes one ``Text`` node, and a parse never yields adjacent text;
* whitespace-only text is dropped unless ``preserve_space=True``; this
  matches how the paper's documents are written (pretty-printed
  element content);
* attributes are classified as ID, IDREF, IDREFS or CDATA by the
  :class:`~repro.xmlmodel.policy.RefPolicy`; without a given policy it
  is derived from the internal DTD subset if there is one;
* the internal DTD subset is sliced out of the input between expat's
  DOCTYPE start and end events and handed whole to
  :mod:`repro.xmlmodel.dtd`; the result is ``document.dtd``.

Refused with :class:`~repro.errors.XmlParseError`: entity declarations
(so no entity is ever expanded), external DTD subsets (``SYSTEM`` /
``PUBLIC``), references to undeclared entities, and any input that is
not well-formed XML 1.0, which includes C0 control characters, even
written as character references.  Namespaces are not processed: a
colon is an ordinary name character.

:func:`is_xml_chars` and :func:`is_xml_name` tell whether a string can
be written as character data or as a name and read back by this parser.
"""

from __future__ import annotations

import re
from typing import Optional

import pyexpat
from pyexpat import errors as expat_errors

from repro.errors import XmlParseError
from repro.xmlmodel import dtd as dtd_module
from repro.xmlmodel.model import Document, Element, Text
from repro.xmlmodel.policy import ATTR_IDREF, ATTR_IDREFS, RefPolicy

# Every character outside the XML 1.0 ``Char`` production.
_NON_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_CODES = expat_errors.codes
_MESSAGES = {
    _CODES[expat_errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT]: "content after the root element",
    _CODES[expat_errors.XML_ERROR_DUPLICATE_ATTRIBUTE]: "duplicate attribute",
    _CODES[expat_errors.XML_ERROR_UNCLOSED_TOKEN]: "unterminated markup",
    _CODES[expat_errors.XML_ERROR_UNCLOSED_CDATA_SECTION]: "unterminated CDATA section",
    _CODES[expat_errors.XML_ERROR_BAD_CHAR_REF]: "bad character reference",
}
_TAG_MISMATCH = _CODES[expat_errors.XML_ERROR_TAG_MISMATCH]
_NO_ELEMENTS = _CODES[expat_errors.XML_ERROR_NO_ELEMENTS]
_UNDEFINED_ENTITY = _CODES[expat_errors.XML_ERROR_UNDEFINED_ENTITY]
_INVALID_TOKEN = _CODES[expat_errors.XML_ERROR_INVALID_TOKEN]
_ENTITY_NAME = re.compile(rb"&([^;\s<&]*);")


class XmlParser:
    """Tree builder over expat; one instance parses one document."""

    def __init__(
        self,
        text: str,
        policy: Optional[RefPolicy] = None,
        preserve_space: bool = False,
    ) -> None:
        self._source = text
        self._policy = policy
        self._preserve_space = preserve_space
        self._dtd: Optional[dtd_module.Dtd] = None
        self._subset_start = -1
        self._root: Optional[Element] = None
        self._open: list[Element] = []
        self._text: list[str] = []

    def parse(self) -> Document:
        """Parse the full document and return a :class:`Document`."""
        # Lone surrogates pass through encoding so expat reports them as
        # an invalid token at their position.
        self._data = self._source.encode("utf-8", "surrogatepass")
        self._expat = expat = pyexpat.ParserCreate(encoding="utf-8")
        expat.buffer_text = True
        expat.specified_attributes = True  # DTD defaults are not materialised
        expat.StartDoctypeDeclHandler = self._start_doctype
        expat.EndDoctypeDeclHandler = self._end_doctype
        expat.EntityDeclHandler = self._refuse_entity
        expat.SkippedEntityHandler = self._skipped_entity
        expat.StartElementHandler = self._start_element
        expat.EndElementHandler = self._end_element
        expat.CharacterDataHandler = self._text.append
        try:
            expat.Parse(self._data, True)
        except pyexpat.ExpatError as error:
            raise self._translate(error) from None
        finally:
            # The handlers are bound methods of this builder: drop the
            # cycle so the expat parser is freed without waiting for
            # the cyclic garbage collector.
            self._expat = None
        document = Document(self._root, id_attribute=self._policy.id_attribute)
        document.dtd = self._dtd  # type: ignore[attr-defined]
        return document

    # ------------------------------------------------------------------
    # Prolog
    # ------------------------------------------------------------------
    def _start_doctype(self, name, system_id, public_id, has_internal_subset) -> None:
        if system_id is not None or public_id is not None:
            raise self._error("external DTD subsets are not supported")
        if has_internal_subset:
            # Reported with the position of the subset's opening '['.
            self._subset_start = self._expat.CurrentByteIndex + 1

    def _end_doctype(self) -> None:
        if self._subset_start < 0:
            return
        # Reported with the position of the DOCTYPE's closing '>'.
        end = self._data.rindex(b"]", self._subset_start, self._expat.CurrentByteIndex)
        self._dtd = dtd_module.parse_dtd(self._data[self._subset_start : end].decode("utf-8"))

    def _refuse_entity(self, name, is_parameter_entity, *_) -> None:
        raise self._error(f"entity declarations are not supported: {name!r}")

    def _skipped_entity(self, name, is_parameter_entity) -> None:
        prefix = "%" if is_parameter_entity else "&"
        raise self._error(f"unknown entity {prefix}{name};")

    # ------------------------------------------------------------------
    # Elements and content
    # ------------------------------------------------------------------
    def _start_element(self, name: str, attributes: dict[str, str]) -> None:
        if self._text:
            self._flush_text()
        policy = self._policy
        if policy is None:
            policy = self._policy = (
                RefPolicy.from_dtd(self._dtd) if self._dtd is not None else RefPolicy.default()
            )
        element = Element(name)
        for attr_name, value in attributes.items():
            if policy.classify(name, attr_name) in (ATTR_IDREF, ATTR_IDREFS):
                for target in value.split():
                    element.add_reference(attr_name, target)
            else:
                # IDs are stored as plain attributes; Document indexes them.
                element.set_attribute(attr_name, value)
        if self._open:
            parent = self._open[-1]
            element.parent = parent
            parent.children.append(element)
        else:
            self._root = element
        self._open.append(element)

    def _end_element(self, name: str) -> None:
        if self._text:
            self._flush_text()
        self._open.pop()

    def _flush_text(self) -> None:
        value = "".join(self._text)
        self._text.clear()
        if self._preserve_space or value.strip():
            parent = self._open[-1]
            text = Text(value)
            text.parent = parent
            parent.children.append(text)

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------
    def _error(self, message: str) -> XmlParseError:
        expat = self._expat
        return XmlParseError(
            message, line=expat.CurrentLineNumber, column=expat.CurrentColumnNumber + 1
        )

    def _translate(self, error: pyexpat.ExpatError) -> XmlParseError:
        """The :class:`XmlParseError` for an expat error, with its 1-based
        line and column."""
        code = error.code
        message = _MESSAGES.get(code) or expat_errors.messages[code]
        at = self._expat.ErrorByteIndex
        if code == _TAG_MISMATCH:
            message = f"mismatched closing tag: expected </{self._open[-1].name}>"
        elif code == _NO_ELEMENTS:
            message = (
                f"unexpected end of input inside <{self._open[-1].name}>"
                if self._open
                else "expected root element"
            )
        elif code == _UNDEFINED_ENTITY:
            match = _ENTITY_NAME.match(self._data, at)
            name = match.group(1).decode("utf-8", "replace") if match else ""
            message = f"unknown entity &{name};"
        elif code == _INVALID_TOKEN and self._data[at : at + 1] == b"<":
            tag = self._data[self._data.rfind(b"<", 0, at) : at]
            if b">" not in tag and (tag.count(b'"') % 2 or tag.count(b"'") % 2):
                message = "'<' is not allowed inside an attribute value"
        return XmlParseError(message, line=error.lineno, column=error.offset + 1)


def is_xml_chars(value: str) -> bool:
    """Whether every character of ``value`` is an XML 1.0 ``Char``: text
    and attribute values the serializer writes out parse back only then."""
    return _NON_CHAR.search(value) is None


def is_xml_name(name: str) -> bool:
    """Whether ``name`` parses back as an element or attribute name.

    Expat is the judge: it implements the XML 1.0 ``Name`` production
    with the character classes of the 4th edition, which are narrower
    than the 5th edition's for some non-ASCII letters.
    """
    seen: list[str] = []
    probe = pyexpat.ParserCreate(encoding="utf-8")
    probe.StartElementHandler = lambda element, _: seen.append(element)
    try:
        probe.Parse(f"<{name}/>".encode("utf-8", "surrogatepass"), True)
    except pyexpat.ExpatError:
        return False
    return seen == [name]


def parse(
    text: str,
    policy: Optional[RefPolicy] = None,
    preserve_space: bool = False,
) -> Document:
    """Parse XML text into a :class:`~repro.xmlmodel.model.Document`.

    ``policy`` controls ID/IDREF/IDREFS classification; when omitted it
    is derived from the document's internal DTD if present, otherwise
    only attributes named ``ID`` are treated as IDs.
    """
    return XmlParser(text, policy=policy, preserve_space=preserve_space).parse()


def parse_file(
    path: str,
    policy: Optional[RefPolicy] = None,
    preserve_space: bool = False,
) -> Document:
    """Parse the XML document stored at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), policy=policy, preserve_space=preserve_space)
