"""Self-healing supervision: a monitor loop over :class:`WorkerSupervisor`.

The supervisor (:mod:`repro.endpoint.worker`) can spawn/kill/restart workers
but nothing *watches* them — a crashed worker stays dead until a human calls
``restart``.  :class:`FleetMonitor` closes the loop:

* **exit detection** — a worker process that exited is restarted;
* **stuck detection** — a live process whose ``/healthz`` has not answered
  for ``stuck_after_seconds`` is considered wedged and restarted (the probe
  runs against the port in the worker's announce file);
* **exponential backoff** — consecutive restarts of one worker without an
  intervening healthy probe back off ``backoff_base_seconds * 2**n`` (capped),
  so a worker that dies on boot is retried at a measured pace, never a hot
  spin;
* **crash-loop quarantine** — more than ``crash_loop_threshold`` restarts
  inside ``crash_loop_window_seconds`` quarantines the worker for
  ``quarantine_seconds``: the monitor stops restarting it entirely until the
  quarantine expires, and counts the event.

Every decision is taken in :meth:`poll_once`, a synchronous deterministic
sweep over the fleet driven by an injectable clock — the unit tests run it
against a scripted fake supervisor and a fake clock, no processes and no
sleeps.  :meth:`start` wraps it in the background thread production uses.
The monitor owns the restart totals (:attr:`FleetMonitor.total_restarts`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

__all__ = ["MonitorPolicy", "FleetMonitor"]


@dataclass(frozen=True)
class MonitorPolicy:
    """Tunables of the self-healing loop.

    Attributes
    ----------
    probe_interval_seconds:
        Sleep between :meth:`FleetMonitor.poll_once` sweeps (thread mode).
    probe_timeout_seconds:
        HTTP timeout of one ``/healthz`` probe.
    stuck_after_seconds:
        A live worker whose last healthy probe is older than this is
        considered stuck and restarted.
    backoff_base_seconds / backoff_cap_seconds:
        Exponential backoff between consecutive restarts of one worker
        (``base * 2**(n-1)``, capped), reset by a healthy probe.
    crash_loop_threshold / crash_loop_window_seconds:
        More than ``threshold`` restarts of one worker within ``window``
        seconds is a crash loop.
    quarantine_seconds:
        How long a crash-looping worker is left alone before the monitor
        tries again.
    """

    probe_interval_seconds: float = 0.25
    probe_timeout_seconds: float = 2.0
    stuck_after_seconds: float = 15.0
    backoff_base_seconds: float = 0.2
    backoff_cap_seconds: float = 5.0
    crash_loop_threshold: int = 5
    crash_loop_window_seconds: float = 30.0
    quarantine_seconds: float = 60.0


class FleetMonitor:
    """Watch a worker fleet and heal it (see module docstring).

    Parameters
    ----------
    supervisor:
        Anything with the :class:`~repro.endpoint.worker.WorkerSupervisor`
        liveness surface: ``worker_indexes()``, ``is_alive(i)``,
        ``restart(i)``, ``announce(i)``, ``url(i)``.
    policy:
        Timing/threshold tunables.
    probe:
        Health probe ``url -> bool`` (injectable for tests); the default
        GETs ``/healthz`` and accepts any 200.
    clock:
        Monotonic clock (injectable for tests).
    """

    def __init__(
        self,
        supervisor,
        policy: Optional[MonitorPolicy] = None,
        *,
        probe: Optional[Callable[[str], bool]] = None,
        clock=time.monotonic,
    ):
        self.supervisor = supervisor
        self.policy = policy or MonitorPolicy()
        self._probe = probe if probe is not None else self._http_probe
        self._clock = clock
        self._lock = threading.Lock()
        now = clock()
        #: Cumulative restarts per worker index.
        self.restarts: Dict[int, int] = {}
        #: Cumulative quarantine entries (crash loops detected).
        self.quarantines = 0
        #: index -> monotonic time the quarantine lifts.
        self.quarantined_until: Dict[int, float] = {}
        self._last_ok: Dict[int, float] = {}
        self._started_at = now
        self._recent: Dict[int, Deque[float]] = {}
        self._next_attempt: Dict[int, float] = {}
        self._consecutive: Dict[int, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Last exception a sweep swallowed (diagnostics; the loop survives).
        self.last_error: Optional[Exception] = None
        #: Cumulative probe invocations that raised (vs. answering unhealthy).
        self.probe_failures = 0
        #: Last exception a health probe raised (diagnostics).
        self.last_probe_error: Optional[Exception] = None

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def total_restarts(self) -> int:
        with self._lock:
            return sum(self.restarts.values())

    def _record_probe_failure(self, exc: Exception) -> None:
        """A raising probe is *evidence*, not just "unhealthy": count it."""
        with self._lock:
            self.probe_failures += 1
            self.last_probe_error = exc

    def _http_probe(self, url: str) -> bool:
        from repro.endpoint.client import TransportError, fetch_json

        try:
            payload = fetch_json(url, "/healthz", timeout=self.policy.probe_timeout_seconds)
        except (*TransportError, ValueError):
            return False
        return bool(payload)

    # ------------------------------------------------------------------ #
    # The deterministic sweep
    # ------------------------------------------------------------------ #
    def poll_once(self) -> None:
        """One supervision sweep over every worker (synchronous)."""
        policy = self.policy
        for index in self.supervisor.worker_indexes():
            now = self._clock()
            until = self.quarantined_until.get(index)
            if until is not None:
                if now < until:
                    continue
                # Quarantine served: clean slate, try healing again.
                del self.quarantined_until[index]
                self._consecutive[index] = 0
                self._next_attempt[index] = 0.0
                self._recent.get(index, deque()).clear()
            if not self.supervisor.is_alive(index):
                self._schedule_restart(index, now, reason="exit")
                continue
            info = self.supervisor.announce(index)
            healthy = False
            if info is not None and info.get("port"):
                try:
                    healthy = self._probe(self.supervisor.url(index))
                except Exception as exc:  # noqa: BLE001 - a broken probe is "unhealthy"
                    self._record_probe_failure(exc)
                    healthy = False
            if healthy:
                self._last_ok[index] = now
                self._consecutive[index] = 0
                continue
            last_ok = self._last_ok.get(index, self._started_at)
            if now - last_ok >= policy.stuck_after_seconds:
                self._schedule_restart(index, now, reason="stuck")

    def _schedule_restart(self, index: int, now: float, *, reason: str) -> None:
        policy = self.policy
        if now < self._next_attempt.get(index, 0.0):
            return  # still backing off
        recent = self._recent.setdefault(index, deque())
        while recent and now - recent[0] > policy.crash_loop_window_seconds:
            recent.popleft()
        if len(recent) >= policy.crash_loop_threshold:
            # Crash loop: stop restarting this worker for a while.
            self.quarantined_until[index] = now + policy.quarantine_seconds
            self.quarantines += 1
            recent.clear()
            return
        self.supervisor.restart(index)
        recent.append(now)
        with self._lock:
            self.restarts[index] = self.restarts.get(index, 0) + 1
        consecutive = self._consecutive.get(index, 0) + 1
        self._consecutive[index] = consecutive
        backoff = min(
            policy.backoff_base_seconds * (2 ** (consecutive - 1)),
            policy.backoff_cap_seconds,
        )
        self._next_attempt[index] = now + backoff
        # Grace period: the fresh worker gets a full stuck window to come up
        # before the next sweep can call it stuck.
        self._last_ok[index] = now

    # ------------------------------------------------------------------ #
    # Background-thread mode
    # ------------------------------------------------------------------ #
    def start(self) -> "FleetMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "FleetMonitor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.policy.probe_interval_seconds):
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 - the monitor must survive
                self.last_error = exc

    def wait_healthy(self, timeout: float = 60.0) -> "FleetMonitor":
        """Block until every worker is alive and answers its health probe."""
        deadline = self._clock() + timeout
        while True:
            healthy = True
            for index in self.supervisor.worker_indexes():
                if not self.supervisor.is_alive(index):
                    healthy = False
                    break
                info = self.supervisor.announce(index)
                if info is None or not info.get("port"):
                    healthy = False
                    break
                try:
                    if not self._probe(self.supervisor.url(index)):
                        healthy = False
                        break
                except Exception as exc:  # noqa: BLE001 - a broken probe is "unhealthy"
                    self._record_probe_failure(exc)
                    healthy = False
                    break
            if healthy:
                return self
            if self._clock() >= deadline:
                raise TimeoutError(f"fleet not healthy within {timeout:.0f}s")
            time.sleep(0.05)
