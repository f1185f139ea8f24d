"""Delta operations refuse content the parser could not read back.

A document host's checkpoint image is its serialization, parsed again on
recovery.  A character outside XML 1.0's ``Char`` production (a C0
control character) or a name outside its ``Name`` production (``1bad``)
would make that image unreadable, so every delta operation that writes
one is refused when it is constructed: nothing reaches the WAL, a
snapshot, or the live tree.
"""

import json

import pytest

from repro.errors import UnreadableContentError
from repro.service import DeltaUpdate, ServiceConfig, UpdateService, WriteAheadLog
from repro.service.ops import CommitMarker, encode_op, op_from_dict
from repro.updates.delta import (
    InsertNode,
    RenameNode,
    SetAttribute,
    SetReferences,
    SetText,
    apply_delta,
    decode_ops,
    from_json,
)
from repro.xmlmodel import RefPolicy, parse, serialize

DOC = "doc.xml"


class TestRefusedAtConstruction:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: InsertNode((0,), 0, text="x\x01y"),
            lambda: InsertNode((), 0, text="\x00"),
            lambda: SetText((0,), "\x1f"),
            lambda: SetText((0,), "\ufffe"),
            lambda: SetAttribute((), "a", "v\x08"),
            lambda: SetAttribute((), "1bad", "v"),
            lambda: SetAttribute((), "a b", "v"),
            lambda: RenameNode((), "1bad"),
            lambda: RenameNode((), "a>"),
            lambda: SetReferences((), "refs", ("ok", "bad\x02")),
            lambda: SetReferences((), "-refs", ("ok",)),
        ],
        ids=[
            "insert-text-control",
            "insert-text-nul",
            "set-text-control",
            "set-text-nonchar",
            "set-attribute-value",
            "set-attribute-name-digit",
            "set-attribute-name-space",
            "rename-digit",
            "rename-markup",
            "set-references-target",
            "set-references-name",
        ],
    )
    def test_each_op_kind_refuses(self, make):
        with pytest.raises(UnreadableContentError):
            make()

    def test_readable_edge_cases_are_accepted(self):
        policy = RefPolicy.explicit(references=("refs",))
        document = parse("<r><a>t</a></r>", policy=policy)
        apply_delta(
            document,
            [
                InsertNode((), 0, text="tab\tline\ncr\r\U0001f600"),
                SetAttribute((), "x", "\t\n\r"),
                RenameNode((1,), "été"),
                SetReferences((), "refs", ("p", "q")),
            ],
            policy,
        )
        text = serialize(document)
        assert serialize(parse(text, policy=policy)) == text

    def test_decoders_refuse(self):
        record = {"op": "insert", "path": [0], "index": 0, "xml": "", "text": "x\x01y"}
        with pytest.raises(UnreadableContentError):
            from_json(json.dumps([record]))
        with pytest.raises(UnreadableContentError):
            decode_ops(json.dumps([record]).encode("ascii"))
        with pytest.raises(UnreadableContentError):
            op_from_dict({"kind": "delta", "doc": DOC, "delta": [record]})


def _service(wal_path):
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=8))
    service.host_document(DOC, parse("<r><a/><b/></r>"))
    return service


class TestNothingUnreadableIsLogged:
    def test_control_character_insert_then_checkpoint_recovers(self, tmp_path):
        """Formerly acknowledged, then fatal to ``recover()`` once a
        checkpoint had written it into the snapshot."""
        wal_path = str(tmp_path / "doc.wal")
        service = _service(wal_path)
        service.start()
        with pytest.raises(UnreadableContentError):
            service.submit_wait(DeltaUpdate(DOC, (InsertNode((0,), 0, text="x\x01y"),)))
        service.submit_wait(DeltaUpdate(DOC, (InsertNode((0,), 0, text="xy"),)))
        service.checkpoint()
        service.submit_wait(DeltaUpdate(DOC, (SetAttribute((1,), "k", "v"),)))
        live = service.query(DOC)
        service.close()

        restarted = _service(wal_path)
        report = restarted.recover()
        restarted.start()
        assert report.failed == 0
        assert restarted.query(DOC) == live
        assert live == serialize(parse('<r><a>xy</a><b k="v"/></r>'))
        restarted.close()

    def test_rename_to_a_non_name_is_refused_before_a_checkpoint(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = _service(wal_path)
        service.start()
        with pytest.raises(UnreadableContentError):
            service.submit_wait(DeltaUpdate(DOC, (RenameNode((0,), "1bad"),)))
        service.checkpoint()
        live = service.query(DOC)
        service.close()

        restarted = _service(wal_path)
        restarted.recover()
        restarted.start()
        assert restarted.query(DOC) == live
        restarted.close()

    def test_execute_of_a_control_character_literal_submits_nothing(self, tmp_path):
        service = _service(str(tmp_path / "doc.wal"))
        service.start()
        before = service.query(DOC)
        statement = f'FOR $r IN document("{DOC}")/r UPDATE $r {{ INSERT "x\x01y" }}'
        with pytest.raises(UnreadableContentError):
            service.execute(DOC, statement)
        assert service.query(DOC) == before
        assert service.wal.last_seq == 0
        service.close()

    def test_legacy_wal_record_with_a_control_character_is_refused(self, tmp_path):
        """A log written before the check holds a record the parser
        cannot carry; recovery names it instead of skipping it."""
        wal_path = str(tmp_path / "doc.wal")
        record = {
            "kind": "delta",
            "doc": DOC,
            "delta": [{"op": "insert", "path": [0], "index": 0, "xml": "", "text": "x\x01y"}],
        }
        with WriteAheadLog(wal_path) as wal:
            wal.append(
                json.dumps(record, separators=(",", ":"), sort_keys=True).encode("ascii")
            )
            wal.append(encode_op(CommitMarker((1,))))
            wal.sync()

        service = _service(wal_path)
        with pytest.raises(UnreadableContentError):
            service.recover()
        service.close()
