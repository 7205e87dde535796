"""Write-ahead delta log between snapshots (incremental durability).

:mod:`repro.persist.snapshot` makes durability *full-state*: every checkpoint
serializes the whole dual store.  That is the right primitive for anchoring,
but heavy write traffic needs deltas — both on the leader (a mutation should
cost one small fsync'd append, not a whole-store serialization) and on the
followers (:mod:`repro.endpoint.worker` should catch up by replaying the few
mutations it missed, not by reloading the dataset).

The delta log provides exactly the classic snapshot+log discipline:

* every :class:`~repro.core.dualstore.DualStore` mutation batch — inserts,
  deletes, partition transfers and evictions — is appended as one
  checksummed record carrying the store generation it produced;
* each record is a self-delimiting **frame** (magic + length + CRC32 + JSON
  body), written with a single buffered write, flushed, and fsync'd before
  the mutation is considered logged.  A crash can only tear the *last*
  frame, and a torn frame never checksums — so a reader always stops
  cleanly at the last complete record;
* segments live under ``<snapshot-root>/wal/`` as
  ``wal-<8-digit-seq>-g<base>.log``, where ``base`` is the generation of the
  snapshot the segment is anchored to.  Every snapshot commit **rotates**
  the log: a fresh segment opens at the new snapshot's generation and
  segments older than the retention window are pruned (in lockstep with
  snapshot retention, so every retained snapshot keeps a replayable tail);
* the restore invariant is ``snapshot + replay(tail) = byte-identical
  restore``: :func:`restore_with_log` loads the committed snapshot and
  replays every complete record after its generation, producing a store
  whose answers, work counters, placement, and generation match the live
  one exactly (dictionary ids are assigned in first-seen order, a table
  keeps each predicate's rows in insertion order whether they arrive one
  write at a time or in one snapshot load, and statistics are recomputed
  lazily from content — so replaying the op sequence reproduces the bytes).

Followers tail the log with a :class:`WalTailer`: a byte-offset cursor per
segment plus a generation cursor, tolerant of the leader's in-flight appends
(an incomplete frame at the tail is simply retried next tick).  When the log
has rotated past the follower's generation the tailer raises
:class:`~repro.errors.WalGapError` and the follower falls back to a full
restore — the decision ``docs/architecture.md`` §9 specifies.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import WalError, WalGapError, WalReplayError
from repro.persist.snapshot import RestoredSnapshot, _fsync_dir, load_snapshot
from repro.rdf.dictionary import triple_from_payload, triple_to_payload
from repro.rdf.terms import IRI
from repro.resilience import faults

__all__ = [
    "WAL_FORMAT_VERSION",
    "WAL_DIR",
    "DeltaLog",
    "WalRecord",
    "WalSegment",
    "WalTailer",
    "apply_record",
    "collect_tail",
    "list_segments",
    "read_segment",
    "restore_with_log",
    "triple_from_payload",
    "triple_to_payload",
]

WAL_FORMAT_VERSION = 1

#: Subdirectory of the snapshot root holding the log segments.
WAL_DIR = "wal"

_MAGIC = b"WAL1"
_HEADER = struct.Struct("<II")  # body length, CRC32 of the body
_SEGMENT_RE = re.compile(r"^wal-(\d{8})-g(\d+)\.log$")


# --------------------------------------------------------------------------- #
# Frames
# --------------------------------------------------------------------------- #
def _encode_body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _frame(body: bytes) -> bytes:
    return _MAGIC + _HEADER.pack(len(body), zlib.crc32(body)) + body


def _write_frame(handle, frame: bytes) -> None:
    """Durably append one frame (write + flush + fsync).

    Kept as a module seam so the crash-consistency tests can inject a torn
    write (partial bytes, then the failure) at every append.  Also the
    ``wal.write`` :mod:`~repro.resilience.faults` site: an installed
    FaultPlan can fail the append *before* any bytes land (a clean I/O
    error, as opposed to the torn-write seam)."""
    faults.fire("wal.write")
    handle.write(frame)
    handle.flush()
    os.fsync(handle.fileno())


def _truncate_segment(path: Path, valid_bytes: int) -> None:
    """Durably drop a torn tail before resuming appends (recovery step).

    A module seam for the same reason as :func:`_write_frame`: the property
    suite injects failures at the truncation step too."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


# --------------------------------------------------------------------------- #
# Segments on disk
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WalSegment:
    """One on-disk log segment (name-derived metadata only)."""

    path: Path
    name: str
    sequence: int
    base_generation: int


@dataclass
class WalRecord:
    """One complete mutation record read back from the log."""

    generation: int
    ops: List[dict]
    nbytes: int  # framed size on disk (magic + header + body)


@dataclass
class SegmentScan:
    """The readable prefix of one segment.

    ``valid_bytes`` is the offset just past the last complete frame —
    everything after it (if ``clean`` is ``False``) is a torn or corrupt
    tail that a writer must truncate before resuming appends."""

    header: Optional[dict]
    records: List[WalRecord]
    valid_bytes: int
    clean: bool


def list_segments(root: Union[str, Path]) -> List[WalSegment]:
    """All log segments under ``root``, oldest first (by sequence)."""
    directory = Path(root) / WAL_DIR
    if not directory.is_dir():
        return []
    segments = []
    for entry in directory.iterdir():
        match = _SEGMENT_RE.match(entry.name)
        if match:
            segments.append(
                WalSegment(
                    path=entry,
                    name=entry.name,
                    sequence=int(match.group(1)),
                    base_generation=int(match.group(2)),
                )
            )
    segments.sort(key=lambda segment: segment.sequence)
    return segments


def read_segment(segment: WalSegment, start: int = 0) -> SegmentScan:
    """Scan one segment's frames from byte offset ``start``.

    Stops at the first incomplete or corrupt frame (``clean=False``) —
    append-only writing means such a frame is always the tail.  When
    scanning from offset 0 the first frame must be the segment header and
    is validated against the segment's name-derived base generation.
    """
    try:
        data = segment.path.read_bytes()
    except FileNotFoundError:
        raise WalGapError(f"delta-log segment {segment.name} vanished (pruned mid-read)") from None
    except OSError as exc:
        raise WalError(f"delta-log segment {segment.name} is unreadable: {exc}") from exc
    if start > len(data):
        # The file shrank below our cursor: it cannot be the segment we were
        # tailing (e.g. the name was reused after a full prune).
        raise WalGapError(f"delta-log segment {segment.name} shrank below offset {start}")
    prefix = len(_MAGIC) + _HEADER.size
    offset = start
    header: Optional[dict] = None
    records: List[WalRecord] = []
    clean = True
    size = len(data)
    while offset < size:
        frame_body = offset + prefix
        if data[offset : offset + len(_MAGIC)] != _MAGIC or frame_body > size:
            clean = False
            break
        length, crc = _HEADER.unpack(data[offset + len(_MAGIC) : frame_body])
        frame_end = frame_body + length
        if frame_end > size:
            clean = False
            break
        body = data[frame_body:frame_end]
        if zlib.crc32(body) != crc:
            clean = False
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            clean = False
            break
        if offset == 0:
            if (
                not isinstance(payload, dict)
                or payload.get("wal") != WAL_FORMAT_VERSION
                or payload.get("base_generation") != segment.base_generation
            ):
                raise WalError(
                    f"delta-log segment {segment.name} has a malformed or mismatched header"
                )
            header = payload
        else:
            try:
                records.append(
                    WalRecord(
                        generation=int(payload["g"]),
                        ops=list(payload["ops"]),
                        nbytes=frame_end - offset,
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise WalError(
                    f"delta-log segment {segment.name} carries a malformed record: {exc}"
                ) from exc
        offset = frame_end
    return SegmentScan(header=header, records=records, valid_bytes=offset, clean=clean)


def collect_tail(root: Union[str, Path], after_generation: int) -> List[WalRecord]:
    """Every complete record with generation > ``after_generation``, in order.

    Scans all retained segments oldest-first (records later than a rotation
    point can legitimately live in the *older* segment: the leader keeps
    appending between the snapshot capture and the rotation).  Raises
    :class:`~repro.errors.WalGapError` when the surviving records do not
    form a contiguous ``after+1, after+2, …`` chain — the log was rotated
    or truncated past the caller and cannot take it forward.
    """
    records: List[WalRecord] = []
    expected = after_generation
    for segment in list_segments(root):
        scan = read_segment(segment)
        for record in scan.records:
            if record.generation <= expected:
                continue
            if record.generation != expected + 1:
                raise WalGapError(
                    f"delta log jumps from generation {expected} to {record.generation} "
                    f"in {segment.name}; a full restore is required"
                )
            records.append(record)
            expected = record.generation
    return records


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
def apply_record(dual, record: WalRecord) -> None:
    """Apply one mutation record to ``dual`` under a single generation bump.

    The ops replay through the store's own mutation methods inside
    :meth:`~repro.core.dualstore.DualStore.batch_mutations`, so one record
    costs exactly one bump (matching the bump that produced it).  Raises
    :class:`~repro.errors.WalReplayError` if the resulting generation does
    not match the record's — a drifted replay must never be served.
    """
    if not record.ops:
        raise WalReplayError(f"record for generation {record.generation} carries no ops")
    with dual.batch_mutations():
        for op in record.ops:
            kind = op.get("op")
            try:
                if kind == "insert":
                    dual.insert([triple_from_payload(item) for item in op["t"]])
                elif kind == "delete":
                    dual.delete([triple_from_payload(item) for item in op["t"]])
                elif kind == "transfer":
                    dual.transfer_partition(IRI(op["p"]))
                elif kind == "evict":
                    dual.evict_partition(IRI(op["p"]))
                else:
                    raise WalReplayError(f"unknown delta-log op {kind!r}")
            except WalReplayError:
                raise
            except Exception as exc:
                raise WalReplayError(
                    f"replaying {kind!r} for generation {record.generation} failed: {exc}"
                ) from exc
    if dual.generation != record.generation:
        raise WalReplayError(
            f"replay drifted: store reached generation {dual.generation}, "
            f"record promised {record.generation}"
        )


def restore_with_log(
    root: Union[str, Path],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    throttle: Optional[ResourceThrottle] = None,
) -> RestoredSnapshot:
    """Load the committed snapshot and replay the delta-log tail onto it.

    The returned :class:`~repro.persist.snapshot.RestoredSnapshot` keeps the
    *base* snapshot's manifest and extras; ``restored.dual.generation`` is
    the replayed head, which may be ahead of ``manifest.generation``.  A
    root without a log (or with an empty tail) restores exactly like
    :func:`~repro.persist.snapshot.load_snapshot`.
    """
    restored = load_snapshot(root, cost_model=cost_model, throttle=throttle)
    for record in collect_tail(root, after_generation=restored.manifest.generation):
        apply_record(restored.dual, record)
    return restored


# --------------------------------------------------------------------------- #
# The leader-side writer
# --------------------------------------------------------------------------- #
class DeltaLog:
    """Append-only writer over the segments under one snapshot root.

    Thread-safe: appends (fired from the dual store's mutation listener) and
    rotations (fired from the snapshot-commit path) serialize on an internal
    lock.  Any append or rotation failure **closes** the log — a torn tail
    must never be appended past — leaving restores anchored to the last
    complete record until the next successful snapshot commit re-opens a
    fresh segment via :meth:`rotate`.
    """

    def __init__(self, root: Union[str, Path], keep_segments: int = 2):
        self.root = Path(root)
        self.directory = self.root / WAL_DIR
        self.keep_segments = max(1, keep_segments)
        self._lock = threading.Lock()
        self._handle = None
        self._segment: Optional[WalSegment] = None
        self._head_generation: Optional[int] = None
        self._sequence_floor = 0

    # -- introspection ------------------------------------------------- #
    @property
    def is_open(self) -> bool:
        return self._handle is not None

    @property
    def segment_name(self) -> Optional[str]:
        segment = self._segment
        return None if segment is None else segment.name

    @property
    def head_generation(self) -> Optional[int]:
        return self._head_generation

    # -- lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        handle, self._handle = self._handle, None
        self._segment = None
        self._head_generation = None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close failures are best-effort
                pass

    # -- writing ------------------------------------------------------- #
    def rotate(self, base_generation: int, snapshot_name: Optional[str] = None) -> WalSegment:
        """Open a fresh segment anchored at ``base_generation`` (the just
        committed snapshot's generation), close the previous one, and prune
        segments beyond the retention window.  The segment is durable (file
        fsync'd, directory entry fsync'd) before this returns."""
        with self._lock:
            if self._segment is not None and self._segment.base_generation >= base_generation:
                # Stale rotation (commits are generation-monotonic; a no-op
                # commit of an older capture must not roll the log back).
                return self._segment
            # Mutations may have been appended between the snapshot capture
            # and this rotation (the gated concurrent leader): the head must
            # carry over, not reset to the capture point — those records stay
            # replayable from the previous segment, and the next append is
            # contiguous with the store, not the snapshot.
            previous_head = self._head_generation if self._handle is not None else None
            self._close_locked()
            self.directory.mkdir(parents=True, exist_ok=True)
            sequence = self._next_sequence_locked()
            name = f"wal-{sequence:08d}-g{base_generation}.log"
            path = self.directory / name
            header = _frame(
                _encode_body(
                    {
                        "wal": WAL_FORMAT_VERSION,
                        "base_generation": base_generation,
                        "snapshot": snapshot_name,
                    }
                )
            )
            handle = open(path, "ab")
            try:
                _write_frame(handle, header)
                _fsync_dir(self.directory)
            except BaseException:
                try:
                    handle.close()
                finally:
                    path.unlink(missing_ok=True)
                raise
            self._handle = handle
            self._segment = WalSegment(
                path=path, name=name, sequence=sequence, base_generation=base_generation
            )
            self._head_generation = (
                base_generation if previous_head is None else max(previous_head, base_generation)
            )
            self._sequence_floor = sequence
            self._prune_locked()
            return self._segment

    def append(self, ops: List[dict], generation: int) -> int:
        """Durably append one mutation record; returns its framed size.

        Raises :class:`~repro.errors.WalError` (closing the log) when no
        segment is open, when ``generation`` is not contiguous with the head
        (a bump escaped the listener — the tail would lie), or when the
        write itself fails (the frame may be torn; readers stop before it).
        """
        with self._lock:
            if self._handle is None:
                raise WalError("delta log has no open segment (rotate first)")
            assert self._head_generation is not None
            if generation != self._head_generation + 1:
                self._close_locked()
                raise WalError(
                    f"append for generation {generation} is not contiguous with the "
                    f"log head {self._head_generation}; closing the segment"
                )
            frame = _frame(_encode_body({"g": generation, "ops": ops}))
            try:
                _write_frame(self._handle, frame)
            except BaseException:
                self._close_locked()
                raise
            self._head_generation = generation
            return len(frame)

    def recover(self, head_generation: int) -> bool:
        """Try to resume appending to the newest on-disk segment.

        Succeeds iff the newest segment's complete records form a contiguous
        chain from its base and end exactly at ``head_generation`` (the
        caller's live store) — the warm-restart path, where the store was
        itself rebuilt via :func:`restore_with_log`.  A torn tail is
        truncated before the append handle reopens.  On any mismatch the
        log stays closed and the caller should anchor a fresh snapshot.
        """
        with self._lock:
            self._close_locked()
            segments = list_segments(self.root)
            if not segments:
                return False
            newest = segments[-1]
            self._sequence_floor = max(self._sequence_floor, newest.sequence)
            try:
                scan = read_segment(newest)
            except WalError:
                return False
            if scan.header is None:
                return False
            expected = newest.base_generation
            for record in scan.records:
                if record.generation != expected + 1:
                    return False
                expected = record.generation
            if expected != head_generation:
                return False
            if not scan.clean:
                try:
                    _truncate_segment(newest.path, scan.valid_bytes)
                except OSError:
                    return False
            self._handle = open(newest.path, "ab")
            self._segment = newest
            self._head_generation = head_generation
            return True

    # -- internals ----------------------------------------------------- #
    def _next_sequence_locked(self) -> int:
        highest = self._sequence_floor
        for segment in list_segments(self.root):
            highest = max(highest, segment.sequence)
        return highest + 1

    def _prune_locked(self) -> None:
        segments = list_segments(self.root)
        if len(segments) <= self.keep_segments:
            return
        for segment in segments[: -self.keep_segments]:
            try:
                segment.path.unlink()
            except OSError:  # pragma: no cover - prune is best-effort
                pass


# --------------------------------------------------------------------------- #
# The follower-side tailer
# --------------------------------------------------------------------------- #
class WalTailer:
    """Incremental reader over a live delta log (the follower cursor).

    Tracks a byte offset per segment plus a generation cursor, so each
    :meth:`poll` reads only the bytes appended since the last one.  An
    incomplete frame at the tail (the leader mid-append, or a torn write) is
    simply left for the next poll — only complete, checksummed records are
    returned.  Raises :class:`~repro.errors.WalGapError` when the log can no
    longer produce ``generation + 1`` (rotated/pruned past this follower, or
    a needed segment vanished): the follower must full-restore and build a
    fresh tailer at the restored generation.
    """

    def __init__(self, root: Union[str, Path], generation: int):
        self.root = Path(root)
        self.generation = generation
        self._offsets: Dict[str, int] = {}

    def poll(self) -> List[WalRecord]:
        """All complete records after the cursor, advancing it past them."""
        segments = list_segments(self.root)
        fresh: List[WalRecord] = []
        for segment in segments:
            start = self._offsets.get(segment.name, 0)
            scan = read_segment(segment, start=start)
            self._offsets[segment.name] = scan.valid_bytes
            for record in scan.records:
                if record.generation <= self.generation:
                    continue
                if record.generation != self.generation + 1:
                    raise WalGapError(
                        f"follower at generation {self.generation} needs "
                        f"{self.generation + 1}, but the log resumes at "
                        f"{record.generation} ({segment.name})"
                    )
                fresh.append(record)
                self.generation = record.generation
        live = {segment.name for segment in segments}
        for name in [name for name in self._offsets if name not in live]:
            del self._offsets[name]
        return fresh
