"""Atomic, versioned snapshot files for :class:`~repro.core.dualstore.DualStore`.

Layout of a snapshot root directory::

    <root>/
      CURRENT                      # text: name of the committed snapshot dir
      snapshot-00000001-g4/        # one immutable directory per snapshot
        MANIFEST.json              # format version, generation, file hashes, ...
        dictionary.json            # term payloads in identifier order
        relational.json            # rows (+ shard placement)
        graph.json                 # graph-store residency + budget accounting
        design.json                # DualStoreDesign, transfer log, config
        extras.json                # optional opaque payload (serving layer)

A snapshot holds state, not derivations: planner statistics are recomputed
from the restored rows on first use.  Snapshots of older builds, whose
manifest also carries a dataset fingerprint and whose ``relational.json``
also carries ``statistics`` and ``engine`` keys, restore the same way; those
keys are not read.

Write protocol (the classic temp-dir + fsync + rename commit):

1. every file is written into ``<root>/.tmp-<nonce>`` and fsynced;
2. the temp directory is renamed to its final ``snapshot-...`` name;
3. ``CURRENT`` is atomically replaced to point at the new name — **this is
   the commit point**; a crash before it leaves the previous snapshot (or
   no snapshot) fully intact, a crash after it leaves the new one;
4. superseded snapshot directories beyond the retention count are pruned.

Read protocol: follow ``CURRENT``, parse the manifest, verify the format
version and every data file's SHA-256 against the manifest, then rebuild the
store bottom-up (dictionary → relational store → graph residency → design).
Any inconsistency raises :class:`~repro.errors.SnapshotIntegrityError` — a
restore never half-loads.

Concurrency: callers must hold the same exclusivity a mutation needs (the
serving layer checkpoints under its writer gate), so a snapshot is always a
consistent cut of the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import DotilConfig
from repro.core.partitions import DualStoreDesign
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import SnapshotError, SnapshotIntegrityError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI
from repro.relstore.columnar import ColumnBlock
from repro.relstore.sharded import ShardedRelationalStore
from repro.resilience import faults
from repro.relstore.store import RelationalStore

__all__ = [
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

FORMAT_VERSION = 1

_CURRENT = "CURRENT"
_MANIFEST = "MANIFEST.json"
_DATA_FILES = ("dictionary.json", "relational.json", "graph.json", "design.json")
_EXTRAS = "extras.json"
_NAME_RE = re.compile(r"^snapshot-(\d{8})-g(\d+)$")


@dataclass(frozen=True)
class SnapshotPolicy:
    """Where the serving layer checkpoints (``ServiceConfig.snapshot``).

    The policy names no trigger: a snapshot is taken when
    ``QueryService.checkpoint()`` is called.

    Attributes
    ----------
    path:
        Snapshot root directory (created on first checkpoint) — the one
        ``checkpoint()`` writes to when called without a path.
    keep:
        Completed snapshots retained in the root; older ones are pruned
        after each successful commit.
    log:
        Enable the write-ahead delta log (:mod:`repro.persist.wal`).  Every
        mutation then appends one cheap fsync'd delta record, and each
        ``checkpoint()`` on the policy path commits a full snapshot and
        rotates the log to a fresh segment anchored at it — so restores
        replay ``snapshot + tail`` and followers catch up from the log
        instead of reloading full snapshots.  The log keeps ``max(2, keep)``
        segments, in lockstep with snapshot retention.
    """

    path: Union[str, Path]
    keep: int = 2
    log: bool = False

    def __post_init__(self) -> None:
        if self.keep < 1:
            raise SnapshotError("keep must retain at least one snapshot")


@dataclass
class SnapshotManifest:
    """The self-describing header of one snapshot."""

    format_version: int
    name: str
    created_at: float
    generation: int
    store_kind: str
    triple_count: int
    config: Dict[str, Any]
    file_hashes: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "name": self.name,
            "created_at": self.created_at,
            "generation": self.generation,
            "store_kind": self.store_kind,
            "triple_count": self.triple_count,
            "config": self.config,
            "file_hashes": self.file_hashes,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SnapshotManifest":
        try:
            return cls(
                format_version=int(payload["format_version"]),
                name=str(payload["name"]),
                created_at=float(payload["created_at"]),
                generation=int(payload["generation"]),
                store_kind=str(payload["store_kind"]),
                triple_count=int(payload["triple_count"]),
                config=dict(payload["config"]),
                file_hashes=dict(payload["file_hashes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotIntegrityError(f"malformed snapshot manifest: {exc}") from exc


@dataclass
class RestoredSnapshot:
    """What :func:`load_snapshot` hands back."""

    dual: Any  # DualStore; typed loosely to avoid an import cycle at runtime
    manifest: SnapshotManifest
    extras: Optional[Dict[str, Any]]


# --------------------------------------------------------------------------- #
# Low-level durable-write helpers
# --------------------------------------------------------------------------- #
def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file(path: Path, data: bytes) -> str:
    """Write + fsync one file; returns its SHA-256 hex digest.

    The ``snapshot.write`` fault site: an installed
    :mod:`~repro.resilience.faults` plan can fail any individual snapshot
    file write before its bytes land (the commit point never moves, so a
    failed write can only ever leave an uncommitted temp directory behind).
    """
    faults.fire("snapshot.write")
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return hashlib.sha256(data).hexdigest()


def _publish_current(root: Path, name: str) -> None:
    """Atomically point ``CURRENT`` at ``name`` — the snapshot commit point.

    Kept as a separate seam so the crash-consistency tests can inject a
    failure between the temp-dir write and the commit.  Also the
    ``snapshot.publish`` :mod:`~repro.resilience.faults` site.
    """
    faults.fire("snapshot.publish")
    pointer = root / f"{_CURRENT}.tmp-{uuid.uuid4().hex[:8]}"
    _write_file(pointer, (name + "\n").encode("utf-8"))
    os.replace(pointer, root / _CURRENT)
    _fsync_dir(root)


def _next_sequence(root: Path) -> int:
    highest = 0
    for entry in root.iterdir() if root.exists() else ():
        match = _NAME_RE.match(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def list_snapshots(root: Union[str, Path]) -> List[str]:
    """Completed snapshot directory names, oldest first."""
    root = Path(root)
    if not root.exists():
        return []
    names = [entry.name for entry in root.iterdir() if _NAME_RE.match(entry.name)]
    return sorted(names)


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
def _backend_state(dual) -> Tuple[str, dict, TermDictionary]:
    backend = dual.relational
    if isinstance(backend, ShardedRelationalStore):
        return f"sharded:{backend.shard_count}", backend.snapshot_state(), backend.dictionary
    return "relational", backend.snapshot_state(), backend.dictionary


def _graph_state(dual) -> dict:
    """Graph-store bookkeeping plus the resident replicas' exact contents.

    A resident partition is the partition *as transferred* — after writes it
    legitimately lags the relational master copy, so the snapshot must carry
    the replica itself (its id columns as flat ``(subject_id, object_id)``
    pairs in block order), not a recipe to refeed it from the master.
    """
    state = dual.graph.snapshot_state()
    partition_rows: List[List[int]] = []
    for value in state["resident"]:
        block = dual.graph.partition_block(IRI(value))
        flat = np.empty(2 * block.count, dtype=np.int64)
        flat[0::2], flat[1::2] = block.subjects, block.objects
        partition_rows.append(flat.tolist())
    state["partition_rows"] = partition_rows
    return state


def _sweep_stale_tmp(root: Path) -> None:
    """Drop temp artifacts a crashed writer left behind.

    A hard kill between the temp-dir write and the rename leaks a full-size
    ``.tmp-*`` directory (and possibly a ``CURRENT.tmp-*`` pointer file) that
    retention would otherwise never touch.  Safe under the single-writer
    contract: nothing else can be mid-write while we run.
    """
    for entry in root.glob(".tmp-*"):
        _remove_tree(entry)
    for entry in root.glob(f"{_CURRENT}.tmp-*"):
        entry.unlink()


def _committed_sequence(root: Path) -> int:
    """Sequence number of the committed snapshot, or ``-1`` when none."""
    pointer = root / _CURRENT
    if pointer.exists():
        try:
            match = _NAME_RE.match(pointer.read_text(encoding="utf-8").strip())
        except OSError:
            match = None
        if match:
            return int(match.group(1))
    return -1


def _sweep_uncommitted(root: Path) -> None:
    """Drop ``snapshot-*`` directories that were renamed but never committed.

    A hard kill between the directory rename and the ``CURRENT`` flip leaves
    a full-size snapshot directory that never became current.  Sequences are
    monotonic and ``CURRENT`` always names the highest *committed* one, so
    anything above it is uncommitted garbage — and must be swept **before**
    the next commit takes a higher sequence, or retention would mistake the
    orphan for a committed snapshot and prune a real one in its place.
    """
    committed = _committed_sequence(root)
    for entry in root.iterdir():
        match = _NAME_RE.match(entry.name)
        if match and int(match.group(1)) > committed:
            _remove_tree(entry)


@dataclass
class CapturedSnapshot:
    """An in-memory consistent cut of a dual store, ready to be committed.

    :func:`capture_snapshot` builds it under the caller's mutation
    exclusivity (fast — pure object traversal, no hashing, no I/O);
    :func:`commit_snapshot` serializes, hashes, and fsyncs it to disk
    *without* needing that exclusivity, so the serving layer can release its
    writer gate before paying the disk."""

    payloads: Dict[str, Any]
    generation: int
    store_kind: str
    triple_count: int
    config: Dict[str, Any]


def capture_snapshot(dual, extras: Optional[Dict[str, Any]] = None) -> CapturedSnapshot:
    """Capture the store's state in memory (the consistency-critical half).

    The caller must guarantee mutation exclusivity for the duration (the
    serving layer holds its writer gate); the returned capture no longer
    aliases any mutable store internals, so committing it later — after the
    gate is released — still writes exactly this cut.  No hashing and no
    serialization happen here; :func:`commit_snapshot` pays for both."""
    if dual.design is None:
        raise SnapshotError("the dual store has no data; load() before snapshotting")
    store_kind, relational_state, dictionary = _backend_state(dual)
    design = dual.design
    payloads: Dict[str, Any] = {
        "dictionary.json": {"terms": dictionary.to_payload()},
        "relational.json": relational_state,
        "graph.json": _graph_state(dual),
        "design.json": {
            "in_graph_store": sorted(p.value for p in design.in_graph_store),
            "storage_budget": design.storage_budget,
            "explicit_budget": dual._explicit_budget,
            "transfer_log": [[kind, predicate.value] for kind, predicate in dual.transfer_log],
        },
    }
    if extras is not None:
        payloads[_EXTRAS] = extras
    return CapturedSnapshot(
        payloads=payloads,
        generation=dual.generation,
        store_kind=store_kind,
        triple_count=len(dual.relational),
        config={
            "r_bg": dual.config.r_bg,
            "prob": dual.config.prob,
            "alpha": dual.config.alpha,
            "gamma": dual.config.gamma,
            "lam": dual.config.lam,
            "seed": dual.config.seed,
        },
    )


def commit_snapshot(
    captured: CapturedSnapshot, root: Union[str, Path], keep: int = 2
) -> SnapshotManifest:
    """Durably write a captured cut under ``root``; returns the manifest.

    All the serialization, hashing, and fsync cost lives here, outside any
    store exclusivity.  Concurrent commits to one root must still be
    serialized by the caller (the serving layer holds a dedicated I/O lock).

    Commits are **monotonic by store generation**: if the committed snapshot
    already carries a newer generation than the capture (two captures raced
    and the younger one committed first), the stale capture is *not*
    written — rolling ``CURRENT`` back would silently lose the newer
    mutations on restore — and the already-committed newer manifest is
    returned instead.
    """
    if keep < 1:
        raise SnapshotError("keep must retain at least one snapshot")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    try:
        existing = read_manifest(root)
    except SnapshotError:
        # No committed snapshot yet, or the committed one is corrupt — in
        # either case writing a fresh snapshot is the right move.
        existing = None
    if existing is not None and existing.generation > captured.generation:
        return existing
    _sweep_stale_tmp(root)
    _sweep_uncommitted(root)

    payloads = captured.payloads
    name = f"snapshot-{_next_sequence(root):08d}-g{captured.generation}"
    manifest = SnapshotManifest(
        format_version=FORMAT_VERSION,
        name=name,
        created_at=time.time(),
        generation=captured.generation,
        store_kind=captured.store_kind,
        triple_count=captured.triple_count,
        config=dict(captured.config),
    )

    tmp = root / f".tmp-{uuid.uuid4().hex[:8]}"
    tmp.mkdir()
    try:
        for filename, payload in payloads.items():
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            manifest.file_hashes[filename] = _write_file(tmp / filename, data)
        _write_file(tmp / _MANIFEST, json.dumps(manifest.to_json(), indent=2).encode("utf-8"))
        _fsync_dir(tmp)
        os.rename(tmp, root / name)
        _fsync_dir(root)
        _publish_current(root, name)
    except BaseException:
        # Best-effort cleanup of the uncommitted attempt; the previous
        # snapshot (if any) is untouched because CURRENT was never flipped.
        # The attempt may have crashed after the directory rename but before
        # the commit — remove the renamed directory too, but only while
        # CURRENT does not name it (if the flip itself half-succeeded, the
        # directory *is* the committed snapshot and must survive).
        _remove_tree(tmp)
        pointer = root / _CURRENT
        committed: Optional[str] = None
        if pointer.exists():
            try:
                committed = pointer.read_text(encoding="utf-8").strip()
            except OSError:  # pragma: no cover - unreadable pointer
                pass
        if committed != name:
            _remove_tree(root / name)
        raise
    _prune(root, keep=keep, current=name)
    return manifest


def write_snapshot(
    dual,
    root: Union[str, Path],
    extras: Optional[Dict[str, Any]] = None,
    keep: int = 2,
) -> SnapshotManifest:
    """Capture and commit one atomic snapshot of ``dual`` under ``root``.

    The one-call convenience path (used by ``DualStore.snapshot``): the
    caller must hold mutation exclusivity across the whole call.  The
    serving layer uses the split :func:`capture_snapshot` /
    :func:`commit_snapshot` halves instead, so only the in-memory capture
    runs under its writer gate."""
    return commit_snapshot(capture_snapshot(dual, extras=extras), root, keep=keep)


def _remove_tree(path: Path) -> None:
    """Best-effort recursive removal (prune, tmp sweep, abort cleanup).

    ``ignore_errors``: every caller runs *after* the commit point (or on an
    abort path), where a cleanup hiccup must not turn an already-successful
    snapshot into a reported failure."""
    shutil.rmtree(path, ignore_errors=True)


def _prune(root: Path, keep: int, current: str) -> None:
    names = list_snapshots(root)
    if current in names:
        # Never prune the committed snapshot, whatever its sort position.
        names.remove(current)
        names.append(current)
    for name in names[:-keep] if len(names) > keep else []:
        _remove_tree(root / name)


# --------------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------------- #
def _current_snapshot_dir(root: Path) -> Path:
    if not root.exists():
        raise SnapshotError(f"no snapshot root at {root}")
    pointer = root / _CURRENT
    if not pointer.exists():
        raise SnapshotError(f"no committed snapshot under {root} (CURRENT missing)")
    name = pointer.read_text(encoding="utf-8").strip()
    snapshot_dir = root / name
    if not name or not snapshot_dir.is_dir():
        raise SnapshotIntegrityError(
            f"CURRENT points at {name!r}, which is not a snapshot directory under {root}"
        )
    return snapshot_dir


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"snapshot file {path.name} is missing") from None
    except (OSError, ValueError) as exc:
        raise SnapshotIntegrityError(f"snapshot file {path.name} is unreadable: {exc}") from exc


def _manifest_from_dir(snapshot_dir: Path) -> SnapshotManifest:
    manifest = SnapshotManifest.from_json(_read_json(snapshot_dir / _MANIFEST))
    if manifest.format_version != FORMAT_VERSION:
        raise SnapshotIntegrityError(
            f"snapshot format v{manifest.format_version} is not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    return manifest


def read_manifest(root: Union[str, Path]) -> SnapshotManifest:
    """The committed snapshot's manifest (no data files are read)."""
    return _manifest_from_dir(_current_snapshot_dir(Path(root)))


def _verified_payload(snapshot_dir: Path, manifest: SnapshotManifest, filename: str) -> Any:
    expected = manifest.file_hashes.get(filename)
    if expected is None:
        raise SnapshotIntegrityError(f"manifest lists no hash for {filename}")
    try:
        data = (snapshot_dir / filename).read_bytes()
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"snapshot file {filename} is missing") from None
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise SnapshotIntegrityError(
            f"snapshot file {filename} is corrupt (sha256 {actual[:12]}… != manifest {expected[:12]}…)"
        )
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotIntegrityError(f"snapshot file {filename} is not valid JSON: {exc}") from exc


def load_snapshot(
    root: Union[str, Path],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    throttle: Optional[ResourceThrottle] = None,
) -> RestoredSnapshot:
    """Rebuild a :class:`~repro.core.dualstore.DualStore` from the committed
    snapshot under ``root``.

    Every data file is hash-verified against the manifest before anything is
    constructed: either the whole store restores, or a
    :class:`~repro.errors.SnapshotIntegrityError` surfaces and no partially
    initialised object escapes.
    """
    from repro.core.dualstore import DualStore  # local import: persist ← core cycle

    root = Path(root)
    # Resolve CURRENT exactly once: re-reading it for the manifest would open
    # a window where a concurrent commit flips the pointer between the two
    # reads and the manifest hashes get checked against another snapshot's
    # files.
    snapshot_dir = _current_snapshot_dir(root)
    manifest = _manifest_from_dir(snapshot_dir)
    payloads = {name: _verified_payload(snapshot_dir, manifest, name) for name in _DATA_FILES}
    extras: Optional[Dict[str, Any]] = None
    if _EXTRAS in manifest.file_hashes:
        extras = _verified_payload(snapshot_dir, manifest, _EXTRAS)

    dictionary = TermDictionary.from_payload(payloads["dictionary.json"]["terms"])
    relational_state = payloads["relational.json"]
    kind = relational_state.get("kind")
    if kind == "sharded":
        backend = ShardedRelationalStore.restore_state(relational_state, dictionary, cost_model)
    elif kind == "relational":
        backend = RelationalStore.restore_state(relational_state, dictionary, cost_model)
    else:
        raise SnapshotIntegrityError(f"unknown relational backend kind {kind!r} in snapshot")

    design_state = payloads["design.json"]
    config = DotilConfig(**manifest.config)
    dual = DualStore(
        config=config,
        cost_model=cost_model,
        throttle=throttle,
        storage_budget=design_state.get("explicit_budget"),
        relational_store=backend,
    )
    graph_state = payloads["graph.json"]
    replica_rows: Dict[str, List[int]] = dict(
        zip(graph_state["resident"], graph_state["partition_rows"])
    )

    def replica_source(predicate: IRI) -> ColumnBlock:
        flat = np.array(replica_rows[predicate.value], dtype=np.int64)
        return ColumnBlock.of(flat[0::2].copy(), flat[1::2].copy(), len(flat) // 2)

    dual.graph.restore_state(graph_state, replica_source)
    dual.design = DualStoreDesign.from_sizes(
        backend.partition_sizes(),
        storage_budget=int(design_state["storage_budget"]),
        in_graph_store=[IRI(value) for value in design_state["in_graph_store"]],
    )
    dual.transfer_log = [(kind, IRI(value)) for kind, value in design_state["transfer_log"]]
    dual.generation = manifest.generation
    return RestoredSnapshot(dual=dual, manifest=manifest, extras=extras)
