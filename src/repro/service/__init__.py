"""The durable concurrent update service (serving layer).

Turns the library into a long-lived server: a write-ahead log of
serialised update operations, group-commit batching that amortises both
fsyncs and SQL statement counts, per-document reader-writer locking,
crash recovery by WAL replay, and a session-based client API.

Quick start::

    from repro.service import ServiceConfig, UpdateService

    service = UpdateService(ServiceConfig(wal_path="updates.wal"))
    service.host_document("doc.xml", document)
    service.recover()          # replay any WAL left by a crash
    service.start()
    with service.open_session() as session:
        session.submit_wait("doc.xml", delta_ops)
        print(session.query("doc.xml"))
    service.close()
"""

from repro.service.batcher import BatcherStats, GroupCommitBatcher, Ticket
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    FaultyFilesystem,
    Filesystem,
    InjectedCrash,
)
from repro.service.locks import LockManager, ReadWriteLock
from repro.service.net import (
    AsyncNetServer,
    AsyncServiceClient,
    ServiceClient,
    parse_address,
)
from repro.service.ops import (
    CommitMarker,
    DeltaUpdate,
    ServiceOp,
    SubtreeCopy,
    SubtreeDelete,
    decode_op,
    encode_op,
    op_from_dict,
    op_to_dict,
)
from repro.service.recovery import RecoveryReport, replay, replay_into_documents
from repro.service.router import ShardCluster, ShardRouter
from repro.service.server import (
    CheckpointReport,
    DocumentHost,
    ServiceConfig,
    StoreHost,
    UpdateService,
)
from repro.service.session import Session
from repro.service.snapshot import CheckpointManifest, SnapshotEntry, SnapshotStore
from repro.service.supervise import (
    ShardMap,
    ShardSupervisor,
    WorkerSpec,
    wait_for_port_file,
    write_port_file,
)
from repro.service.wal import WalRecord, WriteAheadLog, wal_exists

__all__ = [
    "AsyncNetServer",
    "AsyncServiceClient",
    "BatcherStats",
    "CheckpointManifest",
    "CheckpointReport",
    "CommitMarker",
    "DeltaUpdate",
    "DocumentHost",
    "FaultInjector",
    "FaultPlan",
    "FaultyFilesystem",
    "Filesystem",
    "GroupCommitBatcher",
    "InjectedCrash",
    "LockManager",
    "ReadWriteLock",
    "RecoveryReport",
    "ServiceClient",
    "ServiceConfig",
    "ServiceOp",
    "Session",
    "ShardCluster",
    "ShardMap",
    "ShardRouter",
    "ShardSupervisor",
    "SnapshotEntry",
    "SnapshotStore",
    "StoreHost",
    "SubtreeCopy",
    "SubtreeDelete",
    "Ticket",
    "UpdateService",
    "WalRecord",
    "WorkerSpec",
    "WriteAheadLog",
    "decode_op",
    "encode_op",
    "op_from_dict",
    "op_to_dict",
    "parse_address",
    "replay",
    "replay_into_documents",
    "wait_for_port_file",
    "wal_exists",
    "write_port_file",
]
