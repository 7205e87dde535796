"""Multi-process snapshot-replicated serving: worker processes + supervisor.

The GIL caps a single Python process at one core of query execution however
many threads serve it.  The multi-process mode sidesteps it with the
leader/follower design the ROADMAP calls for, using :mod:`repro.persist`
snapshots as the replication primitive:

* a **leader** process owns the mutable store — inserts, tuning epochs — and
  *publishes* each new state as a committed snapshot generation (any
  ``QueryService`` with a :class:`~repro.persist.SnapshotPolicy`, or explicit
  ``checkpoint()`` calls, is a leader; there is no special class);
* N **read-only worker** processes each restore the committed snapshot
  (plus the write-ahead log's tail, :func:`~repro.persist.restore_with_log`)
  and serve it through their own
  :class:`~repro.endpoint.server.SparqlEndpoint`.

Each worker follows the leader on one **catch-up loop**: it tails the
committed write-ahead log (:class:`~repro.persist.WalTailer`) and applies
new records to its serving store *in place* under the service's write gate —
generations only move forward, and each applied batch costs the record's
bytes rather than a full restore.  Whenever the log is rotated past its
position or a record fails to apply, and whenever the root's ``CURRENT``
pointer (watched with a :class:`~repro.persist.SnapshotWatcher`) names a
newer snapshot than the log delivered, the worker resyncs: a full restore
*beside* the serving store, atomically swapped in
(:meth:`SparqlEndpoint.swap_service`), so no request ever sees a half-loaded
store and response generation stamps stay monotonic.  A leader without a
log is the degenerate case: the tailer finds nothing and every published
commit is a resync.

The worker is a real OS process with a CLI (``python -m
repro.endpoint.worker --root SNAPROOT ...``) so the fleet can be supervised
by anything; :class:`WorkerSupervisor` is the in-tree supervisor the
benchmarks and fault tests use — it spawns workers as subprocesses, collects
their *announce files* (atomic JSON drops carrying pid/port/generation),
waits for readiness, and can kill/restart individual workers to exercise the
fault paths.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.endpoint.server import EndpointConfig, SparqlEndpoint
from repro.errors import ReproError, SnapshotError
from repro.persist.snapshot import load_snapshot, read_manifest
from repro.persist.wal import WalTailer, restore_with_log
from repro.persist.watch import SnapshotWatcher
from repro.serve.service import QueryService, ServiceConfig

__all__ = ["WorkerOptions", "run_worker", "WorkerSupervisor"]

#: Where the source tree lives, for PYTHONPATH propagation to subprocesses.
_SRC_ROOT = Path(__file__).resolve().parents[2]

DEFAULT_POLL_INTERVAL = 0.25


class WorkerOptions:
    """Parsed configuration of one worker process (CLI-mirrored)."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        announce: Optional[Union[str, Path]] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_inflight: int = 8,
        queue_depth: int = 16,
        admission_timeout: float = 2.0,
        cache_results: bool = True,
        test_delay_seconds: float = 0.0,
        drain_timeout: float = 5.0,
    ):
        self.root = Path(root)
        self.host = host
        self.port = port
        self.announce = Path(announce) if announce is not None else None
        self.poll_interval = poll_interval
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.admission_timeout = admission_timeout
        self.cache_results = cache_results
        self.test_delay_seconds = test_delay_seconds
        self.drain_timeout = drain_timeout


def _worker_service(restored, cache_results: bool) -> QueryService:
    # Workers serve read-only: no adaptive tuning, no snapshot policy.
    # ``cache_results=False`` is the benchmark mode: measured QPS must be
    # store throughput, not result-cache hit throughput.
    return QueryService(restored.dual, ServiceConfig(cache_results=cache_results))


def _write_announce(path: Path, payload: Dict[str, object]) -> None:
    """Atomic JSON drop: the supervisor may read it at any moment."""
    tmp = path.with_name(f".{path.name}.tmp-{uuid.uuid4().hex[:8]}")
    tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    os.replace(tmp, path)


def run_worker(options: WorkerOptions, stop: Optional[threading.Event] = None) -> None:
    """Boot one worker: restore, serve, follow the snapshot root until told
    to stop (``SIGTERM``/``SIGINT`` or the ``stop`` event)."""
    stop = stop or threading.Event()
    try:  # pragma: no branch - signal wiring only works in the main thread
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
    except ValueError:  # started from a non-main thread (tests)
        pass

    try:
        restored = restore_with_log(options.root)
    except SnapshotError:
        # A malformed log must not keep the worker down: serve the last
        # full snapshot (and let the tailer/resync path sort the log out).
        restored = load_snapshot(options.root)
    service = _worker_service(restored, options.cache_results)
    before_execute = None
    if options.test_delay_seconds > 0:
        # Fault-injection layer: stretch every request so the harness can
        # kill this worker mid-flight deterministically.
        before_execute = lambda _query: time.sleep(options.test_delay_seconds)  # noqa: E731
    endpoint = SparqlEndpoint(
        service,
        EndpointConfig(
            host=options.host,
            port=options.port,
            max_inflight=options.max_inflight,
            queue_depth=options.queue_depth,
            admission_timeout_seconds=options.admission_timeout,
            role="worker",
        ),
        before_execute=before_execute,
    )
    endpoint.start()
    watcher = SnapshotWatcher(options.root)
    generation = restored.dual.generation
    covered = restored.manifest.name  # newest committed snapshot our state covers
    tailer = WalTailer(options.root, generation)
    delta_records = 0
    delta_bytes = 0
    dirty = False  # a delta batch half-applied: the store MUST be replaced

    def announce() -> None:
        if options.announce is not None:
            _write_announce(
                options.announce,
                {
                    "pid": os.getpid(),
                    "port": endpoint.port,
                    "generation": generation,
                    "reloads": endpoint.reloads,
                    "delta_records": delta_records,
                    "delta_bytes": delta_bytes,
                },
            )

    def resync(forced: bool) -> bool:
        """Full restore (snapshot + log tail) and swap; rebuild the tailer.

        ``forced`` swaps even at an equal generation — the serving store may
        be mid-batch after a failed delta apply and must not keep serving.
        """
        nonlocal generation, covered, tailer
        try:
            newer = restore_with_log(options.root)
        except SnapshotError as exc:
            print(f"worker {os.getpid()}: resync failed: {exc}", file=sys.stderr)
            return False
        if forced or newer.dual.generation > generation:
            endpoint.swap_service(_worker_service(newer, options.cache_results))
            generation = newer.dual.generation
        covered = newer.manifest.name
        tailer = WalTailer(options.root, generation)
        announce()
        return True

    announce()
    try:
        while not stop.wait(options.poll_interval):
            if dirty:
                # A previous apply failed mid-batch; retry the forced
                # resync every tick until a clean store is swapped in.
                dirty = not resync(forced=True)
                continue
            try:
                records = tailer.poll()
            except SnapshotError as exc:
                # Log rotated past us (or unreadable): the store is still
                # intact, so a plain resync (swap only if newer) heals it.
                print(f"worker {os.getpid()}: delta log gap: {exc}", file=sys.stderr)
                resync(forced=False)
                continue
            if records:
                try:
                    delta_bytes += endpoint.service.apply_wal_records(records)
                except ReproError as exc:
                    print(f"worker {os.getpid()}: delta apply failed: {exc}", file=sys.stderr)
                    dirty = not resync(forced=True)
                    continue
                delta_records += len(records)
                generation = endpoint.service.dual.generation
                announce()
                continue
            # No new deltas: check whether a snapshot committed *ahead* of
            # our position (a leader publishing without a readable log).
            name = watcher.committed_name()
            if name is None or name == covered:
                continue
            try:
                manifest = read_manifest(options.root)
            except SnapshotError:
                continue
            if manifest.generation <= generation:
                covered = manifest.name  # rotation point our deltas reached
                continue
            resync(forced=False)
    finally:
        # Graceful shutdown: stop admitting (503 "draining"), let in-flight
        # requests finish, then tear the socket down.  SIGKILL skips all of
        # this — that is exactly the hard-death fault mode.
        try:
            endpoint.drain(options.drain_timeout)
        finally:
            endpoint.stop()


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.endpoint.worker",
        description="Read-only snapshot-replicated SPARQL endpoint worker.",
    )
    parser.add_argument("--root", required=True, help="snapshot root directory to follow")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    parser.add_argument("--announce", default=None, help="file to write pid/port/generation JSON to")
    parser.add_argument("--poll-interval", type=float, default=DEFAULT_POLL_INTERVAL)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--admission-timeout", type=float, default=2.0)
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="re-execute every request (benchmark mode: measure store QPS, not cache QPS)",
    )
    parser.add_argument(
        "--test-delay-seconds",
        type=float,
        default=0.0,
        help="fault-injection: sleep this long inside every request's execution slot",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on graceful shutdown",
    )
    args = parser.parse_args(argv)
    run_worker(
        WorkerOptions(
            args.root,
            host=args.host,
            port=args.port,
            announce=args.announce,
            poll_interval=args.poll_interval,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            admission_timeout=args.admission_timeout,
            cache_results=not args.no_result_cache,
            test_delay_seconds=args.test_delay_seconds,
            drain_timeout=args.drain_timeout,
        )
    )


class WorkerSupervisor:
    """Spawn, watch, kill, and restart a fleet of worker subprocesses.

    Each worker is a real OS process (``sys.executable -m
    repro.endpoint.worker``) following the same snapshot root, so N workers
    execute queries on N cores.  Readiness and liveness flow through the
    announce files; stderr of each worker lands in ``run_dir/worker-<i>.log``
    for post-mortems.
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_inflight: int = 8,
        queue_depth: int = 16,
        admission_timeout: float = 2.0,
        cache_results: bool = True,
        test_delay_seconds: float = 0.0,
        run_dir: Optional[Union[str, Path]] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.root = Path(root)
        self.count = workers
        self.host = host
        self.poll_interval = poll_interval
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.admission_timeout = admission_timeout
        self.cache_results = cache_results
        self.test_delay_seconds = test_delay_seconds
        self._owns_run_dir = run_dir is None
        self.run_dir = (
            Path(tempfile.mkdtemp(prefix="repro-workers-")) if run_dir is None else Path(run_dir)
        )
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._procs: Dict[int, subprocess.Popen] = {}
        self._logs: Dict[int, object] = {}
        # Last announced port per worker slot.  A restarted worker re-binds
        # its predecessor's port, so the URL a client pool holds stays valid
        # across restarts instead of pointing at a recycled ephemeral port.
        self._ports: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _announce_path(self, index: int) -> Path:
        return self.run_dir / f"worker-{index}.json"

    def _spawn(self, index: int) -> None:
        announce = self._announce_path(index)
        announce.unlink(missing_ok=True)
        cmd = [
            sys.executable,
            "-m",
            "repro.endpoint.worker",
            "--root",
            str(self.root),
            "--host",
            self.host,
            "--port",
            str(self._ports.get(index, 0)),
            "--announce",
            str(announce),
            "--poll-interval",
            str(self.poll_interval),
            "--max-inflight",
            str(self.max_inflight),
            "--queue-depth",
            str(self.queue_depth),
            "--admission-timeout",
            str(self.admission_timeout),
        ]
        if not self.cache_results:
            cmd.append("--no-result-cache")
        if self.test_delay_seconds > 0:
            cmd.extend(["--test-delay-seconds", str(self.test_delay_seconds)])
        env = os.environ.copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            str(_SRC_ROOT) if not existing else f"{_SRC_ROOT}{os.pathsep}{existing}"
        )
        log = open(self.run_dir / f"worker-{index}.log", "ab")
        self._logs[index] = log
        self._procs[index] = subprocess.Popen(
            cmd, stdout=log, stderr=log, env=env, cwd=str(self.run_dir)
        )

    def start(self) -> "WorkerSupervisor":
        for index in range(self.count):
            self._spawn(index)
        return self

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Readiness and observation
    # ------------------------------------------------------------------ #
    def announce(self, index: int) -> Optional[dict]:
        """The worker's latest announce payload, or ``None`` if unreadable."""
        try:
            info = json.loads(self._announce_path(index).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        try:
            self._ports[index] = int(info["port"])  # pin for restarts
        except (KeyError, TypeError, ValueError):
            pass
        return info

    def worker_indexes(self) -> List[int]:
        """The worker slots this supervisor manages, in stable order."""
        return sorted(self._procs)

    def is_alive(self, index: int) -> bool:
        proc = self._procs.get(index)
        return proc is not None and proc.poll() is None

    def returncode(self, index: int) -> Optional[int]:
        """The worker's exit status, or ``None`` while it is still running."""
        proc = self._procs.get(index)
        return None if proc is None else proc.poll()

    def wait_ready(self, timeout: float = 60.0) -> "WorkerSupervisor":
        """Block until every worker announced a port; raises on worker death
        or timeout (with the dead worker's log tail for the post-mortem)."""
        deadline = time.monotonic() + timeout
        for index, proc in self._procs.items():
            while self.announce(index) is None:
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"worker {index} exited with {proc.returncode} before becoming "
                        f"ready:\n{self._log_tail(index)}"
                    )
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"worker {index} not ready within {timeout:.0f}s")
                time.sleep(0.02)
        return self

    def _log_tail(self, index: int, lines: int = 20) -> str:
        try:
            text = (self.run_dir / f"worker-{index}.log").read_text(encoding="utf-8")
        except OSError:
            return "<no log>"
        return "\n".join(text.splitlines()[-lines:])

    def url(self, index: int) -> str:
        info = self.announce(index)
        if info is None:
            raise RuntimeError(f"worker {index} has not announced a port yet")
        return f"http://{self.host}:{info['port']}"

    @property
    def urls(self) -> List[str]:
        return [self.url(index) for index in sorted(self._procs)]

    def generation(self, index: int) -> Optional[int]:
        info = self.announce(index)
        return None if info is None else int(info["generation"])

    def delta_stats(self, index: int) -> Optional[Dict[str, int]]:
        """Delta-log catch-up totals from the worker's announce file:
        ``{"records": ..., "bytes": ...}``, or ``None`` if unannounced."""
        info = self.announce(index)
        if info is None:
            return None
        return {
            "records": int(info.get("delta_records", 0)),
            "bytes": int(info.get("delta_bytes", 0)),
        }

    def wait_generation(self, generation: int, timeout: float = 30.0) -> "WorkerSupervisor":
        """Block until every live worker announces ``generation`` or newer —
        i.e. the leader's commit has been hot-reloaded fleet-wide."""
        deadline = time.monotonic() + timeout
        for index in self._procs:
            while True:
                seen = self.generation(index)
                if seen is not None and seen >= generation:
                    break
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"worker {index} still at generation {seen} (< {generation}) "
                        f"after {timeout:.0f}s"
                    )
                time.sleep(0.02)
        return self

    # ------------------------------------------------------------------ #
    # Fault injection and shutdown
    # ------------------------------------------------------------------ #
    def kill(self, index: int) -> None:
        """SIGKILL one worker — the hard-death fault mode (no cleanup runs,
        sockets drop mid-request).

        The stale announce file is removed here (after capturing its port
        for restart pinning): a SIGKILLed worker can't clean up after
        itself, and a stale announce would otherwise point the pool or a
        fresh supervisor at a dead — possibly recycled — port.
        """
        self.announce(index)  # capture the port before removing the file
        proc = self._procs[index]
        proc.kill()
        proc.wait(timeout=10)
        self._announce_path(index).unlink(missing_ok=True)

    def restart(self, index: int) -> None:
        """Replace one worker (killing it first if still alive).

        The replacement re-binds the slot's last announced port, so URLs
        held by clients (and their circuit breakers) stay valid across the
        restart.
        """
        self.announce(index)  # refresh the port pin while the file exists
        proc = self._procs.get(index)
        if proc is not None and proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
        self._close_log(index)
        self._spawn(index)

    def _close_log(self, index: int) -> None:
        log = self._logs.pop(index, None)
        if log is not None:
            log.close()  # type: ignore[attr-defined]

    def stop(self) -> None:
        """Terminate the fleet (escalating to SIGKILL) and clean up."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for index, proc in list(self._procs.items()):
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                proc.kill()
                proc.wait(timeout=5)
            self._close_log(index)
            self._announce_path(index).unlink(missing_ok=True)
        self._procs.clear()
        if self._owns_run_dir:
            import shutil

            shutil.rmtree(self.run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
