"""Parity of the expat tree builder with the recursive-descent parser it
replaced.

``parity_corpus.json`` holds, for every XML literal in ``tests/`` and
``examples/`` (string constants that start with ``<``, and the element
literals of XQuery update statements), the ``serialize(parse(x))`` that
the replaced parser produced; ``null`` means it refused the input.  The
generated documents below are pinned the same way by SHA-256, because
their text is too large to commit: the paper's synthetic, TPC-W and
DBLP-like documents and the smoke-size benchmark documents.

Every place where the new parser deliberately answers differently is a
row of ``DIFFERENCES``, with the old and the new result.
"""

import hashlib
import json
from pathlib import Path

import pytest

from perf.workloads import Sizes, SvcAppend, SvcStoreMix
from repro.errors import DtdError, XmlParseError
from repro.workloads import dblp, synthetic, tpcw
from repro.xmlmodel import parse, serialize

CORPUS = json.loads(Path(__file__).with_name("parity_corpus.json").read_text("utf-8"))


def outcome(text):
    """``serialize(parse(text))``, or None when the parser refuses it."""
    try:
        return serialize(parse(text))
    except (XmlParseError, DtdError):
        return None


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{case['source']}#{index}" for index, case in enumerate(CORPUS)]
)
def test_literal_parses_as_before(case):
    assert outcome(case["input"]) == case["expected"]


def _with_dtd(document, dtd=None):
    body = serialize(document)
    return f"<!DOCTYPE {document.root.name} [{dtd}]>\n{body}" if dtd else body


#: name -> (input factory, input SHA-256, SHA-256 of the old serialize(parse(input))).
GENERATED = {
    "svc_store_mix smoke document, seed 1": (
        lambda: SvcStoreMix(1, Sizes.smoke()).document_text(),
        "4acbc44aff98060fbf91c57c28539e63287ee8f2791029c93008bab978660685",
        "8a9ac91f116d469314994cef8f2a8ecc842bba0b07691dda075406d7a290a142",
    ),
    "svc_append smoke document, seed 1": (
        lambda: SvcAppend(1, Sizes.smoke()).document_text(),
        "484e04e64d7da2f154b819a096b52a758057545a7918fe1d85c1a8fa69a85d6d",
        "c33425d85c06a28396825ec19ae2b7d355a9b98f82fdafa3998b2575b2ed1ce2",
    ),
    "synthetic fixed document with its DTD, sf 50, depth 3, fanout 3": (
        lambda: _with_dtd(
            synthetic.generate_fixed(
                synthetic.SyntheticParams(scaling_factor=50, depth=3, fanout=3, seed=1)
            ),
            synthetic.synthetic_dtd(3),
        ),
        "e3f9a2bf373de639f3558c6ec7c7a8087a8519c8e66e1a93cabad3b46fd621e6",
        "d41751ad7bac4445ee6b6bf42f5c8062f6b192c9d1fe8568631c70961578c33e",
    ),
    "TPC-W customer document, 20 customers": (
        lambda: _with_dtd(tpcw.generate_customers(tpcw.CustomerParams(customers=20, seed=1))),
        "5db2eb591ca298df8c34546e2fa90d3a92b7327e9ccc0ce2b8cf84d558fe0717",
        "5db2eb591ca298df8c34546e2fa90d3a92b7327e9ccc0ce2b8cf84d558fe0717",
    ),
    "DBLP-like document with its DTD, 4 conferences": (
        lambda: _with_dtd(
            dblp.generate_dblp(
                dblp.DblpParams(conferences=4, publications_per_conference=10, seed=1)
            ),
            dblp.dblp_dtd(),
        ),
        "2058c8ef0b9652341f4926e308c51bc69a02d778abbff3f260edc0cf89e8bd72",
        "9ef27c49bb0dee90403b8cc3291fc4008fa5b125999cca45f0e3c12f0a6b9576",
    ),
}


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_document_parses_as_before(name):
    factory, input_sha, expected_sha = GENERATED[name]
    text = factory()
    assert sha256(text) == input_sha, "the generator changed; re-pin the document"
    result = outcome(text)
    assert result is not None
    assert sha256(result) == expected_sha


#: (case, input, the replaced parser's result, the new result).
DIFFERENCES = [
    (
        "tab and newline in an attribute value are normalised to spaces",
        '<a x="p\tq\nr"/>',
        '<a x="p&#9;q&#10;r"/>',
        '<a x="p q r"/>',
    ),
    ("CRLF in text becomes LF", "<a>x\r\ny</a>", "<a>x&#13;\ny</a>", "<a>x\ny</a>"),
    ("a lone CR in text becomes LF", "<a>x\ry</a>", "<a>x&#13;y</a>", "<a>x\ny</a>"),
    ("a raw ]]> in text is rejected", "<a>x]]>y</a>", "<a>x]]&gt;y</a>", None),
    ("a control character reference is rejected", "<a>&#1;</a>", "<a>\x01</a>", None),
    ("a raw control character is rejected", "<a>x\x01y</a>", "<a>x\x01y</a>", None),
    ("a control character in an attribute is rejected", '<a b="\x01"/>', '<a b="\x01"/>', None),
    ("a NUL character reference is rejected", "<a>&#0;</a>", "<a>\x00</a>", None),
    ("a surrogate character reference is rejected", "<a>&#xD800;</a>", "<a>\ud800</a>", None),
    ("U+FFFE in text is rejected", "<a>\ufffe</a>", "<a>\ufffe</a>", None),
    ("U+FFFF in text is rejected", "<a>\uffff</a>", "<a>\uffff</a>", None),
    ("a name letter outside XML 1.0's classes is rejected", "<\u0132/>", "<\u0132/>", None),
    ("a superscript digit in a name is rejected", "<a\u00b2/>", "<a\u00b2/>", None),
    ("a middle dot in a name is accepted", "<a\u00b7b/>", None, "<a\u00b7b/>"),
    ("an ideographic zero as a name is accepted", "<\u3007/>", None, "<\u3007/>"),
    (
        "attributes with no space between them are rejected",
        '<a x="1"y="2"/>',
        '<a x="1" y="2"/>',
        None,
    ),
    ("-- inside a comment is rejected", "<a><!-- a -- b --></a>", "<a/>", None),
    (
        "whitespace before the XML declaration is rejected",
        ' \n<?xml version="1.0"?><a/>',
        "<a/>",
        None,
    ),
    ("a leading byte-order mark is accepted", "\ufeff<a/>", None, "<a/>"),
    (
        "an attribute declared ID has its surrounding spaces removed",
        '<!DOCTYPE a [<!ELEMENT a EMPTY><!ATTLIST a ID ID #REQUIRED>]><a ID=" x "/>',
        '<a ID=" x "/>',
        '<a ID="x"/>',
    ),
    (
        "a ] inside a comment no longer ends the internal subset",
        "<!DOCTYPE a [<!-- x]y --><!ELEMENT a (#PCDATA)>]><a>t</a>",
        None,
        "<a>t</a>",
    ),
    (
        "a ] inside an ATTLIST default no longer ends the internal subset",
        '<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ATTLIST a t CDATA "x]y">]><a>t</a>',
        None,
        "<a>t</a>",
    ),
]


@pytest.mark.parametrize(
    "text,old,new", [row[1:] for row in DIFFERENCES], ids=[row[0] for row in DIFFERENCES]
)
def test_intentional_difference(text, old, new):
    assert old != new
    assert outcome(text) == new


@pytest.mark.parametrize(
    "text",
    ["<a>fish & chips</a>", "<a>fish & chips; peas</a>", '<a x="fish & chips"/>'],
)
def test_bare_ampersand_is_rejected_as_before(text):
    assert outcome(text) is None
