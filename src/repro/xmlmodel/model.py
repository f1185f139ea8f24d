"""Core node classes of the in-memory XML data model.

Identity and mutation rules
---------------------------

Every node object has a unique identity (``node_id``); bindings produced
by path evaluation hold node objects, so a binding survives structural
edits around it (e.g. an :class:`RefEntry` binding remains valid when a
sibling entry is inserted before it).  Deleted nodes are marked with a
tombstone (``is_deleted``) which the update executor consults to enforce
the paper's rule that a deleted binding cannot be reused later in an
update sequence; :meth:`Node.revive` clears them again when a delete is
undone.

An :class:`UndoLog` lets a caller take back a run of mutations: the §3
executor and :func:`~repro.updates.delta.apply_delta` push the inverse
of each mutation they make (the detached node itself, the old value or
name), and :meth:`UndoLog.rollback` replays them newest first, so an
undo costs O(change), never O(document).

Attributes and reference lists are kept in *separate* maps on an
element, mirroring Section 3.1's distinction between data-valued
attributes and structure-encoding IDREF/IDREFS attributes.  Which
attribute names are references is decided at parse time by a
:class:`~repro.xmlmodel.policy.RefPolicy`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Union

from repro.errors import ModelError
from repro.obs import get_registry

_node_counter = itertools.count(1)

#: Bumped by every attribute or child edit of any element (made or
#: undone), the edits that can move an ID: a :class:`Document` whose
#: index was built at the current version has nothing to gain from a
#: rebuild on a miss.
_tree_version = 0


def _next_node_id() -> int:
    return next(_node_counter)


def _touch() -> None:
    global _tree_version
    _tree_version += 1


class Node:
    """Common base for every addressable object in the model.

    Subclasses: :class:`Element`, :class:`Text`, :class:`Attribute`,
    :class:`Reference`, :class:`RefEntry`.
    """

    __slots__ = ("node_id", "parent", "is_deleted")

    def __init__(self) -> None:
        self.node_id: int = _next_node_id()
        self.parent: Optional[Node] = None
        self.is_deleted: bool = False

    def mark_deleted(self) -> None:
        """Tombstone this node and everything reachable below it."""
        self.is_deleted = True

    def revive(self) -> None:
        """Clear the tombstones :meth:`mark_deleted` set (an undone delete)."""
        self.is_deleted = False

    @property
    def kind(self) -> str:
        """Lower-case kind tag used in diagnostics ('element', 'text', ...)."""
        return type(self).__name__.lower()

    def root_element(self) -> Optional["Element"]:
        """Walk parent pointers up to the highest element, or None."""
        node: Optional[Node] = self
        last_element: Optional[Element] = None
        while node is not None:
            if isinstance(node, Element):
                last_element = node
            node = node.parent
        return last_element


class Text(Node):
    """A PCDATA node: scalar string content inside an element."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        if not isinstance(value, str):
            raise ModelError(f"PCDATA value must be str, got {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"

    def copy(self) -> "Text":
        """Return a detached copy with fresh identity."""
        return Text(self.value)


class Attribute(Node):
    """A data-valued attribute: a (name, string value) pair.

    ID attributes are modelled as plain attributes whose name the
    document's :class:`~repro.xmlmodel.policy.RefPolicy` designates as
    the ID; IDREF/IDREFS attributes are *not* Attributes — they are
    :class:`Reference` objects.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        super().__init__()
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Attribute({self.name}={self.value!r})"

    def copy(self) -> "Attribute":
        return Attribute(self.name, self.value)


class RefEntry(Node):
    """A single IDREF: one entry inside a :class:`Reference` list.

    Binding to an individual entry (the paper's ``ref(label, target)``
    function) yields a ``RefEntry``; positional inserts
    (``INSERT ... BEFORE $ref``) address the entry's current position in
    its parent list at execution time.
    """

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    @property
    def label(self) -> str:
        """Name of the enclosing reference list ('' if detached)."""
        ref = self.parent
        return ref.name if isinstance(ref, Reference) else ""

    def __repr__(self) -> str:
        return f"RefEntry({self.label}->{self.target})"

    def copy(self) -> "RefEntry":
        return RefEntry(self.target)


class Reference(Node):
    """A named, ordered list of IDREF entries (an IDREFS attribute).

    An IDREF attribute is represented as a singleton list, per the
    simplification in Section 3.1 of the paper.
    """

    __slots__ = ("name", "entries")

    def __init__(self, name: str, targets: Iterable[str] = ()) -> None:
        super().__init__()
        self.name = name
        self.entries: list[RefEntry] = []
        for target in targets:
            self.append(target)

    @property
    def targets(self) -> list[str]:
        """The referenced IDs, in list order."""
        return [entry.target for entry in self.entries]

    def append(self, target: str) -> RefEntry:
        """Add a reference to ``target`` at the end of the list."""
        entry = RefEntry(target)
        entry.parent = self
        self.entries.append(entry)
        return entry

    def insert_relative(self, anchor: RefEntry, target: str, before: bool) -> RefEntry:
        """Insert a new entry directly before or after ``anchor``."""
        position = self._index_of(anchor)
        if not before:
            position += 1
        entry = RefEntry(target)
        entry.parent = self
        self.entries.insert(position, entry)
        return entry

    def remove(self, entry: RefEntry) -> None:
        """Remove a single entry; the rest of the list is preserved."""
        position = self._index_of(entry)
        del self.entries[position]
        entry.parent = None
        entry.mark_deleted()

    def _index_of(self, entry: RefEntry) -> int:
        for index, candidate in enumerate(self.entries):
            if candidate is entry:
                return index
        raise ModelError(f"{entry!r} is not an entry of reference list {self.name!r}")

    def mark_deleted(self) -> None:
        super().mark_deleted()
        for entry in self.entries:
            entry.is_deleted = True

    def revive(self) -> None:
        super().revive()
        for entry in self.entries:
            entry.is_deleted = False

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RefEntry]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"Reference({self.name}={' '.join(self.targets)!r})"

    def copy(self) -> "Reference":
        return Reference(self.name, self.targets)


Child = Union["Element", Text]


class Element(Node):
    """An XML element: name, attributes, reference lists, ordered children.

    Mutations keep parent pointers and the owning document's ID index
    consistent.  All structural update primitives from Section 3.2 are
    built on this class's methods.
    """

    __slots__ = ("name", "attributes", "references", "children")

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.attributes: dict[str, Attribute] = {}
        self.references: dict[str, Reference] = {}
        self.children: list[Child] = []

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def get_attribute(self, name: str) -> Optional[Attribute]:
        return self.attributes.get(name)

    def set_attribute(self, name: str, value: str) -> Attribute:
        """Create or overwrite attribute ``name``.

        Unlike :meth:`add_attribute`, silently replaces an existing
        attribute — used by the parser and by ``Replace`` semantics.
        """
        existing = self.attributes.pop(name, None)
        if existing is not None:
            existing.parent = None
            existing.mark_deleted()
        attribute = Attribute(name, value)
        attribute.parent = self
        self.attributes[name] = attribute
        _touch()
        return attribute

    def add_attribute(self, attribute: Attribute) -> Attribute:
        """Attach a new attribute; fails if the name already exists.

        This implements the paper's rule that "an attempt to insert an
        attribute with the same name as an existing attribute fails".
        """
        if attribute.name in self.attributes:
            raise ModelError(
                f"element <{self.name}> already has an attribute named {attribute.name!r}"
            )
        attribute.parent = self
        self.attributes[attribute.name] = attribute
        _touch()
        return attribute

    def remove_attribute(self, attribute: Attribute) -> None:
        owned = self.attributes.get(attribute.name)
        if owned is not attribute:
            raise ModelError(
                f"{attribute!r} is not an attribute of element <{self.name}>"
            )
        del self.attributes[attribute.name]
        attribute.parent = None
        attribute.mark_deleted()
        _touch()

    def rename_attribute(self, attribute: Attribute, new_name: str) -> None:
        owned = self.attributes.get(attribute.name)
        if owned is not attribute:
            raise ModelError(
                f"{attribute!r} is not an attribute of element <{self.name}>"
            )
        if new_name in self.attributes:
            raise ModelError(
                f"element <{self.name}> already has an attribute named {new_name!r}"
            )
        del self.attributes[attribute.name]
        attribute.name = new_name
        self.attributes[new_name] = attribute
        _touch()

    # ------------------------------------------------------------------
    # Reference lists (IDREF / IDREFS)
    # ------------------------------------------------------------------
    def get_reference(self, name: str) -> Optional[Reference]:
        return self.references.get(name)

    def add_reference(self, name: str, target: str) -> RefEntry:
        """Insert a reference named ``name`` pointing at ``target``.

        Per Section 3.2: "an attempt to insert a reference with the same
        name as an existing IDREFS adds an extra entry into the IDREFS."
        """
        reference = self.references.get(name)
        if reference is None:
            reference = Reference(name)
            reference.parent = self
            self.references[name] = reference
        return reference.append(target)

    def attach_reference(self, reference: Reference) -> Reference:
        """Attach a whole reference list (used by Replace and the parser)."""
        if reference.name in self.references:
            raise ModelError(
                f"element <{self.name}> already has a reference list {reference.name!r}"
            )
        reference.parent = self
        self.references[reference.name] = reference
        return reference

    def remove_reference(self, reference: Reference) -> None:
        owned = self.references.get(reference.name)
        if owned is not reference:
            raise ModelError(
                f"{reference!r} is not a reference list of element <{self.name}>"
            )
        del self.references[reference.name]
        reference.parent = None
        reference.mark_deleted()

    def remove_ref_entry(self, entry: RefEntry) -> None:
        """Remove a single IDREF; drops the list itself if it empties."""
        reference = entry.parent
        if not isinstance(reference, Reference) or reference.parent is not self:
            raise ModelError(f"{entry!r} is not a reference entry of element <{self.name}>")
        reference.remove(entry)
        if not reference.entries:
            del self.references[reference.name]
            reference.parent = None
            reference.mark_deleted()

    def rename_reference(self, reference: Reference, new_name: str) -> None:
        """Rename an entire IDREFS list (individual IDREFs cannot be renamed)."""
        owned = self.references.get(reference.name)
        if owned is not reference:
            raise ModelError(
                f"{reference!r} is not a reference list of element <{self.name}>"
            )
        if new_name in self.references:
            raise ModelError(
                f"element <{self.name}> already has a reference list {new_name!r}"
            )
        del self.references[reference.name]
        reference.name = new_name
        self.references[new_name] = reference

    # ------------------------------------------------------------------
    # Children (elements and PCDATA)
    # ------------------------------------------------------------------
    def append_child(self, child: Child) -> Child:
        self._check_attachable(child)
        child.parent = self
        self.children.append(child)
        _touch()
        return child

    def insert_child_relative(self, anchor: Child, child: Child, before: bool) -> Child:
        """Insert ``child`` directly before or after ``anchor``."""
        self._check_attachable(child)
        position = self._child_index(anchor)
        if not before:
            position += 1
        child.parent = self
        self.children.insert(position, child)
        _touch()
        return child

    def remove_child(self, child: Child) -> int:
        """Detach and tombstone ``child``; returns the index it had."""
        position = self._child_index(child)
        del self.children[position]
        child.parent = None
        child.mark_deleted()
        _touch()
        return position

    def replace_child(self, old: Child, new: Child) -> Child:
        """Atomic in-place replacement preserving document position."""
        self._check_attachable(new)
        position = self._child_index(old)
        old.parent = None
        old.mark_deleted()
        new.parent = self
        self.children[position] = new
        _touch()
        return new

    def child_index(self, child: Child) -> int:
        """0-based position of ``child`` among this element's children.

        This is the value the paper's ``$x.index()`` predicate exposes.
        """
        return self._child_index(child)

    def _child_index(self, child: Child) -> int:
        for index, candidate in enumerate(self.children):
            if candidate is child:
                return index
        raise ModelError(f"{child!r} is not a child of element <{self.name}>")

    def _check_attachable(self, child: Child) -> None:
        if not isinstance(child, (Element, Text)):
            raise ModelError(
                f"only elements and PCDATA can be children, got {type(child).__name__}"
            )
        if child.parent is not None:
            raise ModelError(f"{child!r} is already attached to a parent")

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def child_elements(self, name: Optional[str] = None) -> list["Element"]:
        """Element children, optionally filtered by tag name."""
        return [
            child
            for child in self.children
            if isinstance(child, Element) and (name is None or child.name == name)
        ]

    def text(self) -> str:
        """Concatenated PCDATA of *direct* text children."""
        return "".join(child.value for child in self.children if isinstance(child, Text))

    def first_child_element(self, name: str) -> Optional["Element"]:
        for child in self.children:
            if isinstance(child, Element) and child.name == name:
                return child
        return None

    def iter_descendants(self, include_self: bool = False) -> Iterator["Element"]:
        """Depth-first, document-order iteration over descendant elements."""
        if include_self:
            yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_descendants(include_self=True)

    def mark_deleted(self) -> None:
        super().mark_deleted()
        for attribute in self.attributes.values():
            attribute.is_deleted = True
        for reference in self.references.values():
            reference.mark_deleted()
        for child in self.children:
            child.mark_deleted()

    def revive(self) -> None:
        super().revive()
        for attribute in self.attributes.values():
            attribute.is_deleted = False
        for reference in self.references.values():
            reference.revive()
        for child in self.children:
            child.revive()

    def copy(self) -> "Element":
        """Deep copy with fresh identity throughout (copy semantics of Insert)."""
        clone = Element(self.name)
        for attribute in self.attributes.values():
            clone.add_attribute(attribute.copy())
        for reference in self.references.values():
            clone.attach_reference(reference.copy())
        for child in self.children:
            clone.append_child(child.copy())
        return clone

    def __repr__(self) -> str:
        return f"Element(<{self.name}> id={self.node_id})"


class Document:
    """A parsed XML document: a root element plus an ID index.

    ``id_attribute`` names the attribute that carries element IDs (the
    sample document and DTDs in the paper use ``ID``); the index maps ID
    values to elements.  It is built on the first lookup and rebuilt
    only when a lookup misses after the tree changed, so parsing, a
    copy or a write never pays for it.
    """

    def __init__(self, root: Element, id_attribute: str = "ID") -> None:
        if not isinstance(root, Element):
            raise ModelError("document root must be an element")
        self.root = root
        self.id_attribute = id_attribute
        self._id_index: dict[str, Element] = {}
        #: The tree version the index was built at (None: never built).
        self._indexed_at: Optional[int] = None

    def reindex(self) -> None:
        """Rebuild the ID-to-element index from the current tree."""
        get_registry().counter("xmlmodel.document.reindexes").inc()
        version = _tree_version
        index: dict[str, Element] = {}
        for element in self.root.iter_descendants(include_self=True):
            attribute = element.attributes.get(self.id_attribute)
            if attribute is not None:
                index[attribute.value] = element
        # Index before version: a reader that sees the new version then
        # reads the index it belongs to.
        self._id_index = index
        self._indexed_at = version

    def element_by_id(self, id_value: str) -> Optional[Element]:
        """Look up an element by ID, tolerating stale index entries: a hit
        counts only while the element is live and still carries that ID.
        A miss rebuilds the index at most once per tree version, so a
        dangling IDREF costs a dictionary probe, not a tree walk."""
        indexed_at = self._indexed_at
        element = self._id_index.get(id_value)
        if element is not None and not element.is_deleted:
            attribute = element.attributes.get(self.id_attribute)
            if attribute is not None and attribute.value == id_value:
                return element
        if indexed_at == _tree_version:
            return None
        self.reindex()
        return self._id_index.get(id_value)

    def iter_elements(self) -> Iterator[Element]:
        """All elements in document order, root first."""
        return self.root.iter_descendants(include_self=True)

    def count_elements(self) -> int:
        return sum(1 for _ in self.iter_elements())

    def copy(self) -> "Document":
        get_registry().counter("xmlmodel.document.copies").inc()
        return Document(self.root.copy(), id_attribute=self.id_attribute)

    def __repr__(self) -> str:
        return f"Document(root=<{self.root.name}>, elements={self.count_elements()})"


class UndoLog:
    """The inverses of a run of tree mutations, undone newest first.

    A writer pushes one entry per mutation, holding node objects rather
    than text: the node it detached and the index it had, the node it
    attached, the old text or name, or the old attribute and reference
    maps of one element.  :meth:`mark` and ``rollback(mark)`` take back
    everything since a point; :meth:`clear` forgets it all once the
    mutations are committed, so the log holds one batch at most.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self) -> int:
        return len(self._entries)

    def rollback(self, mark: int = 0) -> None:
        """Undo every mutation pushed since ``mark``, newest first."""
        entries = self._entries
        while len(entries) > mark:
            undo, *args = entries.pop()
            undo(*args)

    def clear(self) -> None:
        self._entries.clear()

    # Each push below follows the mutation it inverts, except the map
    # snapshots, which must see the old state and so come first.
    def removed(self, parent: Element, index: int, child: Child) -> None:
        self._entries.append((_reattach, parent, index, child))

    def inserted(self, child: Child) -> None:
        self._entries.append((_detach, child))

    def replaced(self, old: Child, new: Child) -> None:
        self._entries.append((_unreplace, old, new))

    def text(self, node: Text, old_value: str) -> None:
        self._entries.append((_set_value, node, old_value))

    def renamed(self, element: Element, old_name: str) -> None:
        self._entries.append((_set_name, element, old_name))

    def attributes(self, element: Element) -> None:
        self._entries.append((_restore_attributes, element, dict(element.attributes)))

    def references(self, element: Element) -> None:
        saved = [(name, ref, list(ref.entries)) for name, ref in element.references.items()]
        self._entries.append((_restore_references, element, saved))


class _NoUndo(UndoLog):
    """An undo log that keeps nothing, for writers that never roll back."""

    __slots__ = ()

    def _skip(self, *args) -> None:
        pass

    removed = inserted = replaced = text = renamed = attributes = references = _skip


#: Shared by every writer given no undo log.
NO_UNDO: UndoLog = _NoUndo()


def _reattach(parent: Element, index: int, child: Child) -> None:
    child.revive()
    child.parent = parent
    parent.children.insert(index, child)
    _touch()


def _detach(child: Child) -> None:
    parent = child.parent
    del parent.children[parent.child_index(child)]
    child.parent = None
    _touch()


def _unreplace(old: Child, new: Child) -> None:
    parent = new.parent
    parent.children[parent.child_index(new)] = old
    new.parent = None
    old.parent = parent
    old.revive()
    _touch()


def _set_value(node: Text, value: str) -> None:
    node.value = value


def _set_name(element: Element, name: str) -> None:
    element.name = name


def _restore_attributes(element: Element, saved: dict[str, Attribute]) -> None:
    element.attributes = saved
    for name, attribute in saved.items():
        attribute.name = name
        attribute.parent = element
        attribute.is_deleted = False
    _touch()


def _restore_references(
    element: Element, saved: list[tuple[str, Reference, list[RefEntry]]]
) -> None:
    element.references = {}
    for name, reference, entries in saved:
        reference.name = name
        reference.entries = entries
        reference.parent = element
        reference.revive()
        for entry in entries:
            entry.parent = reference
        element.references[name] = reference
