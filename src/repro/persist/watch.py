"""Watching a snapshot root for newly committed generations.

The multi-process serving mode (:mod:`repro.endpoint.worker`) turns
:mod:`repro.persist` into a replication primitive: a leader process commits
snapshot generations under one root, and N read-only worker processes follow
the ``CURRENT`` pointer.  :class:`SnapshotWatcher` is the follower half —
a cheap poll (one small-file read per tick) that detects a new commit, plus
a restore helper that tolerates the races a live root has by construction:

* ``CURRENT`` is replaced atomically (:func:`os.replace`), so a reader sees
  the old or the new pointer, never a torn one;
* a commit landing *while* a follower loads the previous snapshot can prune
  that snapshot's directory out from under the load (retention keeps
  ``keep`` generations, but a slow follower can lose the race).  The load
  then fails hash verification or file lookup — loudly, per the persist
  contract — and :meth:`SnapshotWatcher.load_if_newer` simply retries
  against the now-newer ``CURRENT``.

Generations are monotonic by the commit protocol
(:func:`repro.persist.snapshot.commit_snapshot` refuses to roll ``CURRENT``
back), so a follower that only ever swaps to a strictly newer generation can
never regress — the property the endpoint's generation-stamped responses
make observable.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Union

from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.cost.resources import ResourceThrottle
from repro.errors import SnapshotError
from repro.persist.snapshot import (
    RestoredSnapshot,
    SnapshotManifest,
    load_snapshot,
    read_manifest,
)

__all__ = ["SnapshotWatcher"]

_CURRENT = "CURRENT"


class SnapshotWatcher:
    """Follow the committed snapshot under one root directory.

    The watcher keeps a cursor — the snapshot *name* it last saw — and
    reports a change exactly once per committed generation.  Construct it
    with ``seen=<name>`` when the caller already restored a snapshot, or
    leave it unset to treat the first committed
    snapshot as news.
    """

    def __init__(self, root: Union[str, Path], seen: Optional[str] = None):
        self.root = Path(root)
        self._seen = seen

    # ------------------------------------------------------------------ #
    # Cheap polling
    # ------------------------------------------------------------------ #
    def committed_name(self) -> Optional[str]:
        """The snapshot name ``CURRENT`` points at, or ``None`` when there is
        no committed snapshot (missing root/pointer — a follower may start
        before its leader's first commit)."""
        try:
            name = (self.root / _CURRENT).read_text(encoding="utf-8").strip()
        except OSError:
            return None
        return name or None

    def poll(self) -> Optional[SnapshotManifest]:
        """The manifest of a newly committed snapshot, or ``None``.

        One small-file read on the no-change path.  The cursor only advances
        when a manifest is actually readable, so a commit observed mid-write
        (pointer flipped, manifest read racing retention) is re-reported on
        the next tick instead of being lost.
        """
        name = self.committed_name()
        if name is None or name == self._seen:
            return None
        try:
            manifest = read_manifest(self.root)
        except SnapshotError:
            return None
        # read_manifest re-resolves CURRENT; track the name it actually read
        # (a concurrent commit between our two reads just means we report the
        # newer snapshot, which is the right answer anyway).
        self._seen = manifest.name
        return manifest

    # ------------------------------------------------------------------ #
    # Restore helpers
    # ------------------------------------------------------------------ #
    def load_if_newer(
        self,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        throttle: Optional[ResourceThrottle] = None,
        attempts: int = 3,
    ) -> Optional[RestoredSnapshot]:
        """Restore the committed snapshot iff it is news to this watcher.

        Retries up to ``attempts`` times when the load loses a race against
        a concurrent commit-and-prune (each retry re-resolves ``CURRENT``
        itself, so it targets the newer snapshot).  Returns ``None`` when
        nothing new is committed.

        When every attempt fails, the cursor is restored to its pre-call
        value before the last error is raised: the generation this call
        never managed to load stays *news*, so the next call retries it
        instead of silently skipping it.
        """
        entry_cursor = self._seen
        if self.poll() is None:
            return None
        last: Optional[SnapshotError] = None
        for _ in range(max(1, attempts)):
            try:
                restored = load_snapshot(self.root, cost_model=cost_model, throttle=throttle)
            except SnapshotError as exc:
                last = exc
                time.sleep(0.01)
                continue
            self._seen = restored.manifest.name
            return restored
        assert last is not None
        self._seen = entry_cursor
        raise last
