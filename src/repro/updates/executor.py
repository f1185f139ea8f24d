"""Two-phase execution of update operation sequences (Section 3.2).

Phase 1 — **bind**: every variable operand and every Sub-Update pattern
match is resolved against the *pre-update* document, producing a fully
bound operation tree.  Phase 2 — **execute**: operations run in
sequence; content is materialised (copied) per use at execution time,
and tombstones enforce the rule that a deleted binding cannot be used
by later operations *except as content*.

The executor supports both execution models:

* ``ordered=True`` (default): non-attribute inserts append at the end;
  ``INSERT ... BEFORE/AFTER`` is allowed; Replace preserves position.
* ``ordered=False``: positional inserts are rejected; plain inserts may
  place content at any position (this implementation appends, which is
  one legal arbitrary order).

With a ``recorder`` list, each primitive also appends its effect as
:mod:`repro.updates.delta` operations, addressed by the paths of the
moment it ran, so replaying the list front to back on a copy of the
input reproduces the executor's tree:

==============================  ========================================
primitive                       recorded
==============================  ========================================
delete element / PCDATA         ``DeleteNode`` (before the removal)
delete attribute                ``DeleteAttribute``
delete / replace IDREF(S),      ``SetReferences`` with the list as it now
insert reference content,       stands, or ``DeleteReferences`` once it
insert into an IDREFS list      is gone
rename element                  ``RenameNode``
rename attribute,               ``DeleteAttribute`` + ``SetAttribute``
replace attribute
rename IDREFS list              ``DeleteReferences`` + ``SetReferences``
insert / before / after         ``InsertNode`` at the child's final index
insert attribute                ``SetAttribute``
replace element / PCDATA        ``DeleteNode`` + ``InsertNode``, one index
==============================  ========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.errors import DeletedBindingError, UpdateError
from repro.obs import get_registry
from repro.updates.binding import enumerate_bindings
from repro.updates.content import RefContent
from repro.updates.delta import (
    DeleteAttribute,
    DeleteNode,
    DeleteReferences,
    DeltaOp,
    InsertNode,
    Path as DeltaPath,
    RenameNode,
    SetAttribute,
    SetReferences,
    node_path,
)
from repro.updates.operations import (
    Content,
    Delete,
    Insert,
    InsertAfter,
    InsertBefore,
    Operand,
    Rename,
    Replace,
    SubUpdate,
    UpdateOp,
    VarOperand,
)
from repro.xmlmodel.model import Attribute, Element, Node, RefEntry, Reference, Text
from repro.xpath.ast import Path
from repro.xpath.evaluator import Binding, XPathContext


# ----------------------------------------------------------------------
# Bound (phase-1) representation
# ----------------------------------------------------------------------
@dataclass
class _BoundContent:
    """Content resolved at bind time, materialised at execution time.

    ``node`` is an existing document node (copy semantics) or a literal
    construction that must be cloned per use; ``ref_label`` remembers the
    IDREFS label of a reference-entry operand whose parent list may be
    gone by execution time.
    """

    value: Union[Node, RefContent, str]
    ref_label: str = ""


@dataclass
class _BoundSimple:
    """A bound non-recursive operation."""

    op_kind: str  # 'delete' | 'rename' | 'insert' | 'before' | 'after' | 'replace'
    child: Binding | None = None
    anchor: Binding | None = None
    content: _BoundContent | None = None
    new_name: str = ""


@dataclass
class BoundUpdate:
    """One target element and its fully bound operation sequence."""

    target: Element
    steps: list[Union[_BoundSimple, "BoundUpdate"]]


class UpdateExecutor:
    """Binds and executes update sequences against in-memory documents."""

    def __init__(
        self,
        context: XPathContext,
        ordered: bool = True,
        recorder: Optional[list[DeltaOp]] = None,
    ) -> None:
        self.context = context
        self.ordered = ordered
        self.recorder = recorder

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def apply(
        self,
        target: Element,
        operations: list[UpdateOp] | tuple[UpdateOp, ...],
        variables: dict[str, Binding] | None = None,
    ) -> None:
        """Bind then execute ``operations`` against ``target``."""
        bound = self.bind(target, operations, variables or {})
        self.execute(bound)

    def bind(
        self,
        target: Element,
        operations: list[UpdateOp] | tuple[UpdateOp, ...],
        variables: dict[str, Binding],
    ) -> BoundUpdate:
        """Phase 1: resolve all operands and Sub-Update pattern matches
        against the current (pre-update) document state."""
        if not isinstance(target, Element):
            raise UpdateError(f"update target must be an element, got {target!r}")
        steps: list[Union[_BoundSimple, BoundUpdate]] = []
        scope = self.context.child(variables=variables, context_node=target)
        for operation in operations:
            steps.extend(self._bind_operation(target, operation, scope, variables))
        return BoundUpdate(target, steps)

    def execute(self, bound: BoundUpdate) -> None:
        """Phase 2: run the bound operations in sequence."""
        self._check_live(bound.target, "update target")
        for step in bound.steps:
            if isinstance(step, BoundUpdate):
                self.execute(step)
            else:
                self._execute_simple(bound.target, step)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _bind_operation(
        self,
        target: Element,
        operation: UpdateOp,
        scope: XPathContext,
        variables: dict[str, Binding],
    ) -> list[Union[_BoundSimple, BoundUpdate]]:
        if isinstance(operation, Delete):
            return [_BoundSimple("delete", child=self._resolve(operation.child, scope))]
        if isinstance(operation, Rename):
            return [
                _BoundSimple(
                    "rename",
                    child=self._resolve(operation.child, scope),
                    new_name=operation.name,
                )
            ]
        if isinstance(operation, Insert):
            return [_BoundSimple("insert", content=self._bind_content(operation.content, scope))]
        if isinstance(operation, InsertBefore):
            return [
                _BoundSimple(
                    "before",
                    anchor=self._resolve(operation.anchor, scope),
                    content=self._bind_content(operation.content, scope),
                )
            ]
        if isinstance(operation, InsertAfter):
            return [
                _BoundSimple(
                    "after",
                    anchor=self._resolve(operation.anchor, scope),
                    content=self._bind_content(operation.content, scope),
                )
            ]
        if isinstance(operation, Replace):
            return [
                _BoundSimple(
                    "replace",
                    child=self._resolve(operation.child, scope),
                    content=self._bind_content(operation.content, scope),
                )
            ]
        if isinstance(operation, SubUpdate):
            return self._bind_sub_update(target, operation, scope, variables)
        raise UpdateError(f"unknown update operation {operation!r}")

    def _bind_sub_update(
        self,
        target: Element,
        operation: SubUpdate,
        scope: XPathContext,
        variables: dict[str, Binding],
    ) -> list[BoundUpdate]:
        """Enumerate the nested pattern match now, over the input document."""
        bound_updates: list[BoundUpdate] = []
        for combo in enumerate_bindings(operation.clauses, operation.predicates, scope):
            merged = dict(variables)
            merged.update(combo)
            nested_target = merged.get(operation.target_variable)
            if nested_target is None:
                raise UpdateError(
                    f"sub-update target ${operation.target_variable} is not bound"
                )
            if not isinstance(nested_target, Element):
                raise UpdateError(
                    f"sub-update target ${operation.target_variable} must bind an "
                    f"element, got {nested_target!r}"
                )
            bound_updates.append(self.bind(nested_target, operation.operations, merged))
        return bound_updates

    def _resolve(self, operand: Operand, scope: XPathContext) -> Binding:
        if isinstance(operand, VarOperand):
            if operand.name not in scope.variables:
                raise UpdateError(f"unbound variable ${operand.name} in update operation")
            value = scope.variables[operand.name]
            if isinstance(value, list):
                raise UpdateError(
                    f"${operand.name} is a LET sequence; update operands need a "
                    "single node (use FOR)"
                )
            return value
        if isinstance(operand, (Element, Text, Attribute, Reference, RefEntry)):
            return operand
        raise UpdateError(f"cannot use {operand!r} as an update operand")

    def _bind_content(self, content: Content, scope: XPathContext) -> _BoundContent:
        if isinstance(content, VarOperand):
            node = self._resolve(content, scope)
            label = node.label if isinstance(node, RefEntry) else ""
            return _BoundContent(node, ref_label=label)
        if isinstance(content, (Element, Text, Attribute)):
            return _BoundContent(content)
        if isinstance(content, (RefContent, str)):
            return _BoundContent(content)
        if isinstance(content, Path):
            raise UpdateError(
                "path expressions are not valid content; bind them to a variable first"
            )
        raise UpdateError(f"cannot use {content!r} as content")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check_live(self, node: Binding, role: str) -> None:
        if node.is_deleted:
            raise DeletedBindingError(
                f"{role} {node!r} was deleted earlier in this update sequence"
            )

    def _record(
        self,
        node: Union[Element, Text],
        effect: Callable[[DeltaPath], list[DeltaOp]],
    ) -> None:
        """When recording, log ``effect`` of the path ``node`` has now."""
        if self.recorder is not None:
            self.recorder.extend(effect(node_path(node)))

    def _record_child(self, child: Union[Element, Text], replaced: bool = False) -> None:
        """Log a child just inserted; with ``replaced``, it took the
        place of the child that stood at its index."""

        def effect(path: DeltaPath) -> list[DeltaOp]:
            insert = InsertNode.of(path[:-1], path[-1], child)
            return [DeleteNode(path), insert] if replaced else [insert]

        self._record(child, effect)

    def _record_references(self, target: Element, name: str) -> None:
        """Log the IDREFS list ``name`` of ``target`` as it now stands."""
        reference = target.references.get(name)
        self._record(
            target,
            lambda path: [
                SetReferences(path, name, tuple(reference.targets))
                if reference is not None
                else DeleteReferences(path, name)
            ],
        )

    def _execute_simple(self, target: Element, step: _BoundSimple) -> None:
        get_registry().counter(f"update.ops.{step.op_kind}").inc()
        if step.op_kind == "delete":
            self._execute_delete(target, step.child)
        elif step.op_kind == "rename":
            self._execute_rename(target, step.child, step.new_name)
        elif step.op_kind == "insert":
            self._execute_insert(target, step.content)
        elif step.op_kind in ("before", "after"):
            self._execute_positional(target, step)
        elif step.op_kind == "replace":
            self._execute_replace(target, step.child, step.content)
        else:
            raise UpdateError(f"unknown bound operation kind {step.op_kind!r}")

    def _execute_delete(self, target: Element, child: Binding) -> None:
        self._check_live(child, "delete operand")
        if isinstance(child, Attribute):
            self._require_member(child.parent is target, child, target)
            target.remove_attribute(child)
            self._record(target, lambda path: [DeleteAttribute(path, child.name)])
        elif isinstance(child, RefEntry):
            reference = child.parent
            self._require_member(
                isinstance(reference, Reference) and reference.parent is target,
                child,
                target,
            )
            target.remove_ref_entry(child)
            self._record_references(target, reference.name)
        elif isinstance(child, Reference):
            self._require_member(child.parent is target, child, target)
            target.remove_reference(child)
            self._record(target, lambda path: [DeleteReferences(path, child.name)])
        elif isinstance(child, (Element, Text)):
            self._require_member(child.parent is target, child, target)
            self._record(child, lambda path: [DeleteNode(path)])
            target.remove_child(child)
        else:
            raise UpdateError(f"cannot delete {child!r}")

    def _execute_rename(self, target: Element, child: Binding, new_name: str) -> None:
        self._check_live(child, "rename operand")
        if isinstance(child, Text):
            raise UpdateError("PCDATA cannot be renamed")
        if isinstance(child, Attribute):
            self._require_member(child.parent is target, child, target)
            old_name = child.name
            target.rename_attribute(child, new_name)
            self._record(
                target,
                lambda path: [
                    DeleteAttribute(path, old_name),
                    SetAttribute(path, new_name, child.value),
                ],
            )
        elif isinstance(child, (RefEntry, Reference)):
            # Per Section 3.2: renaming an individual IDREF renames the
            # entire IDREFS list.
            reference = child.parent if isinstance(child, RefEntry) else child
            self._require_member(
                isinstance(reference, Reference) and reference.parent is target,
                child,
                target,
            )
            old_name = reference.name
            target.rename_reference(reference, new_name)
            self._record(target, lambda path: [DeleteReferences(path, old_name)])
            self._record_references(target, new_name)
        elif isinstance(child, Element):
            self._require_member(child.parent is target, child, target)
            child.name = new_name
            self._record(child, lambda path: [RenameNode(path, new_name)])
        else:
            raise UpdateError(f"cannot rename {child!r}")

    def _execute_insert(self, target: Element, content: _BoundContent) -> None:
        value = content.value
        if isinstance(value, (str, Element, Text)):
            self._record_child(target.append_child(self._materialize_child(value, content)))
        elif isinstance(value, RefContent):
            target.add_reference(value.label, value.target)
            self._record_references(target, value.label)
        elif isinstance(value, Attribute):
            attribute = target.add_attribute(value.copy())
            self._record(
                target, lambda path: [SetAttribute(path, attribute.name, attribute.value)]
            )
        elif isinstance(value, RefEntry):
            label = content.ref_label or value.label
            if not label:
                raise UpdateError("cannot insert a detached reference entry without a label")
            target.add_reference(label, value.target)
            self._record_references(target, label)
        elif isinstance(value, Reference):
            for target_id in value.targets:
                target.add_reference(value.name, target_id)
            self._record_references(target, value.name)
        else:
            raise UpdateError(f"cannot insert content {value!r}")

    def _execute_positional(self, target: Element, step: _BoundSimple) -> None:
        if not self.ordered:
            raise UpdateError(
                "INSERT ... BEFORE/AFTER is only defined in the ordered execution model"
            )
        anchor = step.anchor
        self._check_live(anchor, "positional anchor")
        before = step.op_kind == "before"
        value = step.content.value if step.content else None
        if isinstance(anchor, (Element, Text)):
            self._require_member(anchor.parent is target, anchor, target)
            new_child = self._materialize_child(value, step.content)
            target.insert_child_relative(anchor, new_child, before=before)
            self._record_child(new_child)
            return
        if isinstance(anchor, RefEntry):
            reference = anchor.parent
            self._require_member(
                isinstance(reference, Reference) and reference.parent is target,
                anchor,
                target,
            )
            target_id = self._materialize_ref_target(value, reference.name)
            reference.insert_relative(anchor, target_id, before=before)
            self._record_references(target, reference.name)
            return
        raise UpdateError(
            f"positional insert anchors must be child elements, PCDATA, or "
            f"reference entries; got {anchor!r}"
        )

    def _execute_replace(self, target: Element, child: Binding, content: _BoundContent) -> None:
        self._check_live(child, "replace operand")
        value = content.value
        if isinstance(child, (Element, Text)):
            self._require_member(child.parent is target, child, target)
            new_child = self._materialize_child(value, content)
            target.replace_child(child, new_child)
            self._record_child(new_child, replaced=True)
            return
        if isinstance(child, Attribute):
            self._require_member(child.parent is target, child, target)
            new_attribute = self._materialize_attribute(value)
            target.remove_attribute(child)
            target.add_attribute(new_attribute)
            self._record(
                target,
                lambda path: [
                    DeleteAttribute(path, child.name),
                    SetAttribute(path, new_attribute.name, new_attribute.value),
                ],
            )
            return
        if isinstance(child, RefEntry):
            reference = child.parent
            self._require_member(
                isinstance(reference, Reference) and reference.parent is target,
                child,
                target,
            )
            label, target_id = self._materialize_labelled_ref(value)
            if label and label != reference.name:
                raise UpdateError(
                    f"a reference binding can only be replaced by a reference with "
                    f"the same label ({reference.name!r}), got {label!r}"
                )
            reference.insert_relative(child, target_id, before=True)
            target.remove_ref_entry(child)
            self._record_references(target, reference.name)
            return
        if isinstance(child, Reference):
            self._require_member(child.parent is target, child, target)
            label, target_ids = self._materialize_ref_list(value)
            if label and label != child.name:
                raise UpdateError(
                    f"a reference list can only be replaced by references with the "
                    f"same label ({child.name!r}), got {label!r}"
                )
            name = child.name
            target.remove_reference(child)
            for target_id in target_ids:
                target.add_reference(name, target_id)
            self._record_references(target, name)
            return
        raise UpdateError(f"cannot replace {child!r}")

    # ------------------------------------------------------------------
    # Content materialisation helpers
    # ------------------------------------------------------------------
    def _materialize_child(self, value, content: _BoundContent | None):
        if isinstance(value, str):
            return Text(value)
        if isinstance(value, (Element, Text)):
            return value.copy()
        raise UpdateError(
            f"content inserted among child elements must be an element or PCDATA, "
            f"got {value!r}"
        )

    def _materialize_attribute(self, value) -> Attribute:
        if isinstance(value, Attribute):
            return value.copy()
        raise UpdateError(f"an attribute can only be replaced by an attribute, got {value!r}")

    def _materialize_ref_target(self, value, expected_label: str) -> str:
        """Content inserted relative to a RefEntry must be an ID."""
        if isinstance(value, str):
            return value
        if isinstance(value, RefContent):
            if value.label != expected_label:
                raise UpdateError(
                    f"reference content labelled {value.label!r} cannot enter the "
                    f"{expected_label!r} list"
                )
            return value.target
        if isinstance(value, RefEntry):
            return value.target
        raise UpdateError(f"expected an ID to insert into an IDREFS list, got {value!r}")

    def _materialize_labelled_ref(self, value) -> tuple[str, str]:
        """(label, target) for single-reference content; label '' if untyped."""
        if isinstance(value, str):
            return "", value
        if isinstance(value, RefContent):
            return value.label, value.target
        if isinstance(value, Attribute):
            # Example 4 replaces a manager reference with
            # new_attribute(managers, "jones1"): attribute-shaped content
            # targeting a reference slot is coerced, keeping its name as label.
            return value.name, value.value
        if isinstance(value, RefEntry):
            return value.label, value.target
        raise UpdateError(f"cannot use {value!r} to replace a reference")

    def _materialize_ref_list(self, value) -> tuple[str, list[str]]:
        if isinstance(value, Reference):
            return value.name, value.targets
        if isinstance(value, Attribute):
            return value.name, value.value.split()
        if isinstance(value, RefContent):
            return value.label, [value.target]
        if isinstance(value, str):
            return "", value.split()
        raise UpdateError(f"cannot use {value!r} to replace a reference list")

    @staticmethod
    def _require_member(condition: bool, child: Binding, target: Element) -> None:
        if not condition:
            raise UpdateError(f"{child!r} is not a member of update target {target!r}")
