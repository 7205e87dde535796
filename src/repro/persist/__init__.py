"""Durable snapshots and warm restarts for the dual-store structure.

The paper's Section 6 experiments price the *cold start*: re-ingesting the
dataset from N-Triples and re-learning the physical design from an untrained
tuner.  A production serving system cannot pay that on every process restart,
so this package persists the entire tuned state of a
:class:`~repro.core.dualstore.DualStore` — term dictionary, relational triple
table (plus the shard placement of a sharded store), graph-store
residency and budget accounting, the
:class:`~repro.core.partitions.DualStoreDesign`, and (through the serving
layer) the adaptive tuner's window and Q-state — and restores it with full
fidelity: the restored store (its table statistics recomputed from the
restored rows) answers every query with byte-identical bindings and
bit-identical work counters.

Snapshots are *versioned* and written *atomically*: each snapshot is a fresh
directory populated and fsynced before being renamed into place, and a
``CURRENT`` pointer file is atomically replaced as the single commit point.
A crash at any moment leaves either the previous complete snapshot or a
loud :class:`~repro.errors.SnapshotError` — never a half-loaded store.
See ``docs/architecture.md`` §7 for the format.

Snapshots are also the system's **replication primitive**: commits are
generation-monotonic, so read-only follower processes can track a root's
``CURRENT`` pointer with a :class:`SnapshotWatcher` and hot-reload each new
generation the leader publishes — the multi-process serving mode of
:mod:`repro.endpoint.worker` (``docs/architecture.md`` §8).

Between snapshots, the **write-ahead delta log** (:mod:`repro.persist.wal`,
``docs/architecture.md`` §9) makes durability and replication incremental:
every mutation batch appends one checksummed, fsync'd record, each snapshot
commit rotates the log, ``snapshot + replay(tail)`` restores byte-identically
(:func:`restore_with_log`), and followers catch up by tailing committed
records (:class:`WalTailer`) instead of reloading full snapshots.
"""

from repro.persist.snapshot import (
    FORMAT_VERSION,
    CapturedSnapshot,
    RestoredSnapshot,
    SnapshotManifest,
    SnapshotPolicy,
    capture_snapshot,
    commit_snapshot,
    list_snapshots,
    load_snapshot,
    read_manifest,
    write_snapshot,
)
from repro.persist.wal import (
    WAL_FORMAT_VERSION,
    DeltaLog,
    WalRecord,
    WalSegment,
    WalTailer,
    apply_record,
    collect_tail,
    list_segments,
    restore_with_log,
)
from repro.persist.watch import SnapshotWatcher

__all__ = [
    "SnapshotWatcher",
    "WAL_FORMAT_VERSION",
    "DeltaLog",
    "WalRecord",
    "WalSegment",
    "WalTailer",
    "apply_record",
    "collect_tail",
    "list_segments",
    "restore_with_log",
    "FORMAT_VERSION",
    "CapturedSnapshot",
    "RestoredSnapshot",
    "SnapshotManifest",
    "SnapshotPolicy",
    "capture_snapshot",
    "commit_snapshot",
    "list_snapshots",
    "load_snapshot",
    "read_manifest",
    "write_snapshot",
]
