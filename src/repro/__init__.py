"""repro: a reproduction of "Updating XML" (Tatarinov et al., SIGMOD 2001).

The library implements the paper end to end:

* an XML data model with IDREF/IDREFS-aware attributes, a parser (a
  tree builder over stdlib expat), a serializer, and DTD support
  (:mod:`repro.xmlmodel`);
* the primitive update operations of Section 3 with ordered/unordered
  semantics (:mod:`repro.updates`);
* XQuery with the paper's ``FOR...LET...WHERE...UPDATE`` extensions,
  executable in memory (:mod:`repro.xquery`);
* an XML repository over SQLite — Shared Inlining (plus Edge/Attribute)
  shredding, Sorted Outer Union reconstruction, Access Support
  Relations, and the paper's delete/insert strategy implementations
  (:mod:`repro.relational`);
* workload generators and the benchmark harness behind every table and
  figure of Section 7 (:mod:`repro.workloads`, :mod:`repro.bench`).

Quickstart::

    from repro import XmlStore, parse

    store = XmlStore.from_dtd(dtd_text, document_name="doc.xml")
    store.load(parse(xml_text))
    store.execute('FOR $d IN document("doc.xml")/CustDB, '
                  '$c IN $d/Customer[Name="John"] '
                  'UPDATE $d { DELETE $c }')

or, purely in memory::

    from repro import XQueryEngine, parse

    engine = XQueryEngine({"doc.xml": parse(xml_text)})
    engine.execute(update_statement)
"""

from repro.errors import (
    DeletedBindingError,
    DtdError,
    MappingError,
    ModelError,
    ReproError,
    StorageError,
    TranslationError,
    UnreadableContentError,
    UpdateError,
    ValidationError,
    XmlParseError,
    XPathError,
    XQueryError,
)
from repro.relational.store import XmlStore
from repro.xmlmodel import Document, Element, RefPolicy, parse, parse_dtd, parse_file, serialize
from repro.xquery import QueryResult, UpdateResult, XQueryEngine

__version__ = "1.0.0"

__all__ = [
    "DeletedBindingError",
    "Document",
    "DtdError",
    "Element",
    "MappingError",
    "ModelError",
    "QueryResult",
    "RefPolicy",
    "ReproError",
    "StorageError",
    "TranslationError",
    "UnreadableContentError",
    "UpdateError",
    "UpdateResult",
    "ValidationError",
    "XPathError",
    "XQueryEngine",
    "XQueryError",
    "XmlParseError",
    "XmlStore",
    "__version__",
    "parse",
    "parse_dtd",
    "parse_file",
    "serialize",
]
