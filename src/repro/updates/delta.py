"""Deltas: serialisable update sequences between document versions (§1).

The paper motivates update encapsulation with "incremental changes
('deltas') over content, which is important for Continuous Queries,
XML document mirroring, caching, and replication".  This module makes
that concrete:

* :func:`diff` computes a delta — a list of primitive, serialisable
  operations — that transforms one document into another;
* :func:`apply_delta` replays a delta on a document (the mirror /
  replica side), optionally onto an :class:`~repro.xmlmodel.model.UndoLog`
  that can take it back;
* :func:`to_json` / :func:`from_json` give deltas a wire format.

Addressing: each operation names its target by a *child-index path*
from the root (``[2, 0]`` = third child's first child), valid against
the document as every earlier operation of the delta left it.  ``diff``
emits sibling edits right-to-left so earlier indices stay valid; an
:class:`~repro.updates.executor.UpdateExecutor` with a recorder logs
each primitive's effect with the paths of the moment it ran
(:func:`node_path`), which is the same guarantee by construction.

Every operation that writes text, an attribute value, a reference
target or a name checks it when the operation is constructed (by a
client, a recorder, or the WAL and wire decoders): a character outside
XML 1.0's ``Char`` or a name outside its ``Name`` raises
:class:`~repro.errors.UnreadableContentError`, so no document reaches a
log or a snapshot that the parser could not read back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Union

from repro.errors import UnreadableContentError, UpdateError
from repro.xmlmodel.model import NO_UNDO, Document, Element, Text, UndoLog
from repro.xmlmodel.parser import XmlParser, is_xml_chars, is_xml_name
from repro.xmlmodel.policy import RefPolicy
from repro.xmlmodel.serializer import serialize

Path = tuple[int, ...]


def _require_chars(op, *values: str) -> None:
    for value in values:
        if not is_xml_chars(value):
            raise UnreadableContentError(
                f"{type(op).__name__}: {value!r} holds a character XML 1.0 cannot carry"
            )


def _require_name(op, name: str) -> None:
    if not is_xml_name(name):
        raise UnreadableContentError(f"{type(op).__name__}: {name!r} is not an XML name")


# ----------------------------------------------------------------------
# Delta operations (all JSON-serialisable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeleteNode:
    """Remove the child (element or text) at ``path``."""

    path: Path


@dataclass(frozen=True)
class InsertNode:
    """Insert new content as child number ``index`` of the element at
    ``path``.  ``xml`` holds markup for elements; ``text`` holds PCDATA."""

    path: Path
    index: int
    xml: str = ""
    text: str = ""

    def __post_init__(self) -> None:
        _require_chars(self, self.text)

    @classmethod
    def of(cls, path: Path, index: int, node: Union[Element, Text]) -> "InsertNode":
        """The insert that recreates ``node`` at ``index`` under ``path``."""
        if isinstance(node, Text):
            return cls(path, index, text=node.value)
        return cls(path, index, xml=serialize(node, indent=0))


@dataclass(frozen=True)
class SetText:
    """Replace the text node at ``path`` with ``text``."""

    path: Path
    text: str

    def __post_init__(self) -> None:
        _require_chars(self, self.text)


@dataclass(frozen=True)
class RenameNode:
    """Rename the element at ``path``."""

    path: Path
    name: str

    def __post_init__(self) -> None:
        _require_name(self, self.name)


@dataclass(frozen=True)
class SetAttribute:
    """Create or overwrite an attribute of the element at ``path``."""

    path: Path
    name: str
    value: str

    def __post_init__(self) -> None:
        _require_name(self, self.name)
        _require_chars(self, self.value)


@dataclass(frozen=True)
class DeleteAttribute:
    path: Path
    name: str


@dataclass(frozen=True)
class SetReferences:
    """Overwrite (or create) a whole IDREFS list."""

    path: Path
    name: str
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        _require_name(self, self.name)
        _require_chars(self, *self.targets)


@dataclass(frozen=True)
class DeleteReferences:
    path: Path
    name: str


DeltaOp = Union[
    DeleteNode, InsertNode, SetText, RenameNode,
    SetAttribute, DeleteAttribute, SetReferences, DeleteReferences,
]


def node_path(node: Union[Element, Text]) -> Path:
    """The child-index path of ``node`` from the root of its tree, as
    the tree stands now."""
    indices: list[int] = []
    while node.parent is not None:
        parent = node.parent
        indices.append(parent.child_index(node))
        node = parent
    indices.reverse()
    return tuple(indices)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def diff(old: Document, new: Document) -> list[DeltaOp]:
    """A delta transforming ``old``'s content into ``new``'s.

    The root element itself is never deleted; its name, attributes, and
    content are edited in place.
    """
    ops: list[DeltaOp] = []
    _diff_element(old.root, new.root, (), ops)
    return ops


def _node_key(node) -> tuple:
    """Alignment key for child matching: tag for elements, a marker for
    text (values are compared after alignment)."""
    if isinstance(node, Element):
        return ("elem", node.name)
    return ("text",)


def _diff_element(old: Element, new: Element, path: Path, ops: list[DeltaOp]) -> None:
    if old.name != new.name:
        ops.append(RenameNode(path, new.name))
    _diff_attributes(old, new, path, ops)
    _diff_references(old, new, path, ops)
    _diff_children(old, new, path, ops)


def _diff_attributes(old: Element, new: Element, path: Path, ops: list[DeltaOp]) -> None:
    for name in old.attributes:
        if name not in new.attributes:
            ops.append(DeleteAttribute(path, name))
    for name, attribute in new.attributes.items():
        previous = old.attributes.get(name)
        if previous is None or previous.value != attribute.value:
            ops.append(SetAttribute(path, name, attribute.value))


def _diff_references(old: Element, new: Element, path: Path, ops: list[DeltaOp]) -> None:
    for name in old.references:
        if name not in new.references:
            ops.append(DeleteReferences(path, name))
    for name, reference in new.references.items():
        previous = old.references.get(name)
        if previous is None or previous.targets != reference.targets:
            ops.append(SetReferences(path, name, tuple(reference.targets)))


def _diff_children(old: Element, new: Element, path: Path, ops: list[DeltaOp]) -> None:
    old_keys = [_node_key(child) for child in old.children]
    new_keys = [_node_key(child) for child in new.children]
    matcher = SequenceMatcher(a=old_keys, b=new_keys, autojunk=False)
    opcodes = matcher.get_opcodes()
    # Emit sibling-level edits right-to-left so indices into the OLD child
    # list remain valid as the delta is applied.
    for tag, old_lo, old_hi, new_lo, new_hi in reversed(opcodes):
        if tag == "equal":
            continue
        if tag in ("delete", "replace"):
            for index in range(old_hi - 1, old_lo - 1, -1):
                ops.append(DeleteNode(path + (index,)))
        if tag in ("insert", "replace"):
            for offset, new_index in enumerate(range(new_lo, new_hi)):
                ops.append(InsertNode.of(path, old_lo + offset, new.children[new_index]))
    # Matched pairs are visited after the sibling edits above have been
    # applied, so each matched child is addressed at its *final* index:
    # its old index shifted by the net insert/delete count of every
    # non-equal block to its left.
    shift = 0
    adjusted: list[tuple[int, int]] = []
    for tag, old_lo, old_hi, new_lo, new_hi in opcodes:
        if tag == "equal":
            for offset in range(old_hi - old_lo):
                adjusted.append((old_lo + offset + shift, new_lo + offset))
        else:
            shift += (new_hi - new_lo) - (old_hi - old_lo)
    for final_index, new_index in adjusted:
        old_child = None
        for candidate_tag, old_lo, old_hi, new_lo, new_hi in opcodes:
            if candidate_tag == "equal" and new_lo <= new_index < new_hi:
                old_child = old.children[old_lo + (new_index - new_lo)]
                break
        new_child = new.children[new_index]
        child_path = path + (final_index,)
        if isinstance(old_child, Text):
            if old_child.value != new_child.value:
                ops.append(SetText(child_path, new_child.value))
        else:
            _diff_element(old_child, new_child, child_path, ops)


# ----------------------------------------------------------------------
# Apply
# ----------------------------------------------------------------------
def apply_delta(
    document: Document,
    ops: list[DeltaOp],
    policy: RefPolicy | None = None,
    undo: UndoLog = NO_UNDO,
) -> None:
    """Replay a delta in place, pushing each op's inverse onto ``undo``.

    A delta that fails part-way leaves its earlier ops applied; the
    caller takes them back with ``undo.rollback(mark)``."""
    policy = policy or RefPolicy.default()
    for op in ops:
        _apply_op(document, op, policy, undo)


def _resolve(document: Document, path: Path):
    node = document.root
    for index in path:
        if not isinstance(node, Element) or index >= len(node.children):
            raise UpdateError(f"delta path {path} does not resolve")
        node = node.children[index]
    return node


def _apply_op(document: Document, op: DeltaOp, policy: RefPolicy, undo: UndoLog) -> None:
    if isinstance(op, DeleteNode):
        target = _resolve(document, op.path)
        parent = target.parent
        if not isinstance(parent, Element):
            raise UpdateError("cannot delete the document root")
        undo.removed(parent, parent.remove_child(target), target)
    elif isinstance(op, InsertNode):
        parent = _resolve(document, op.path)
        if op.xml:
            content = XmlParser(op.xml, policy=policy).parse().root
            content.parent = None
        else:
            content = Text(op.text)
        if op.index >= len(parent.children):
            parent.append_child(content)
        else:
            parent.insert_child_relative(parent.children[op.index], content, before=True)
        undo.inserted(content)
    elif isinstance(op, SetText):
        target = _resolve(document, op.path)
        if not isinstance(target, Text):
            raise UpdateError(f"delta path {op.path} is not a text node")
        undo.text(target, target.value)
        target.value = op.text
    elif isinstance(op, RenameNode):
        target = _resolve(document, op.path)
        undo.renamed(target, target.name)
        target.name = op.name
    elif isinstance(op, SetAttribute):
        element = _resolve(document, op.path)
        undo.attributes(element)
        element.set_attribute(op.name, op.value)
    elif isinstance(op, DeleteAttribute):
        element = _resolve(document, op.path)
        attribute = element.attributes.get(op.name)
        if attribute is not None:
            undo.attributes(element)
            element.remove_attribute(attribute)
    elif isinstance(op, SetReferences):
        element = _resolve(document, op.path)
        undo.references(element)
        existing = element.references.get(op.name)
        if existing is not None:
            element.remove_reference(existing)
        for target_id in op.targets:
            element.add_reference(op.name, target_id)
    elif isinstance(op, DeleteReferences):
        element = _resolve(document, op.path)
        existing = element.references.get(op.name)
        if existing is not None:
            undo.references(element)
            element.remove_reference(existing)
    else:
        raise UpdateError(f"unknown delta operation {op!r}")


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
_OP_NAMES = {
    DeleteNode: "delete",
    InsertNode: "insert",
    SetText: "set_text",
    RenameNode: "rename",
    SetAttribute: "set_attr",
    DeleteAttribute: "del_attr",
    SetReferences: "set_refs",
    DeleteReferences: "del_refs",
}
_OPS_BY_NAME = {name: cls for cls, name in _OP_NAMES.items()}


def op_to_record(op: DeltaOp) -> dict:
    """One operation as a JSON-ready dict."""
    record = {"op": _OP_NAMES[type(op)], "path": list(op.path)}
    for key, value in op.__dict__.items():
        if key == "path":
            continue
        record[key] = list(value) if isinstance(value, tuple) else value
    return record


def record_to_op(record: dict) -> DeltaOp:
    """Rebuild one operation from its JSON-ready dict."""
    record = dict(record)
    kind = _OPS_BY_NAME[record.pop("op")]
    record["path"] = tuple(record["path"])
    if "targets" in record:
        record["targets"] = tuple(record["targets"])
    return kind(**record)


def to_json(ops: list[DeltaOp]) -> str:
    """Serialise a delta for transmission (mirroring / replication)."""
    return json.dumps([op_to_record(op) for op in ops])


def from_json(text: str) -> list[DeltaOp]:
    """Parse a transmitted delta."""
    return [record_to_op(record) for record in json.loads(text)]


def encode_ops(ops: list[DeltaOp]) -> bytes:
    """Canonical wire encoding of a delta (for the WAL).

    Byte-stable for a given delta: compact separators, sorted keys, and
    escaped non-ASCII, so checksums over the payload are reproducible
    across processes.
    """
    return json.dumps(
        [op_to_record(op) for op in ops],
        separators=(",", ":"),
        sort_keys=True,
        ensure_ascii=True,
    ).encode("ascii")


def decode_ops(data: bytes) -> list[DeltaOp]:
    """Inverse of :func:`encode_ops`."""
    return [record_to_op(record) for record in json.loads(data.decode("ascii"))]
