"""The server subprocess of the benchmark spine.

Builds the real stack — ``DualStore`` -> ``QueryService`` -> ``SparqlEndpoint``
— from public constructors (see :func:`workloads.build_stack`), times the
build ``builds`` times, serves the last one over HTTP, and obeys one-line JSON
commands on stdin, each acknowledged with one JSON line on stdout:

* line 1 (from the client, at launch): the run configuration; the server
  generates the dataset while the client prepares its oracle;
* line 2: ``{"inventory": [...]}`` — the go signal; answered by the ready
  line ``{"port", "setup_s", "setup_reference_s", "pid"}`` once the last
  build is serving (the client blocks on ``readline()``, nobody sleeps or
  polls);
* then ``insert`` / ``delete`` / ``tune`` / ``checkpoint`` (the write ops of
  a lap), ``ref`` (seconds one ``workloads.reference_kernel()`` takes right
  now), ``cpu`` (``time.process_time()``, all threads), ``shed`` (requests
  the admission gate refused) and ``stop`` (peak RSS, then a clean exit).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro import SparqlEndpoint  # noqa: E402

import workloads  # noqa: E402
from estimator import percentile  # noqa: E402

SETUP_REFERENCE_ROUNDS = 12


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_kb() -> int:
    """This process's own high-water mark.  ``ru_maxrss`` also remembers the
    image that forked us (the client), which outweighs a small server."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _time_reference(rounds: int) -> List[float]:
    """Seconds of each of ``rounds`` reference kernels.  The collector is off
    meanwhile: everything the kernel allocates is freed when it returns, so
    the server's collections come when they would have come without it."""
    seconds = []
    gc.disable()
    try:
        for _round in range(rounds):
            started = time.perf_counter()
            workloads.reference_kernel()
            seconds.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return seconds


def main() -> int:
    config = json.loads(sys.stdin.readline())
    if config.get("cpu") is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {config["cpu"]})
    spec = workloads.SPECS[config["workload"]]
    scale = workloads.QUICK if config["quick"] else workloads.FULL
    scratch = Path(config["scratch"])
    _dataset, triples = workloads.generate_triples(scale)
    base, batches = workloads.split_held_out(spec, triples, config["seed"])
    inventory = json.loads(sys.stdin.readline())["inventory"]

    # Host speed around each build: the kernel's lower quartile over the
    # rounds just before and after it.  A build is one long sample, so the
    # luckiest of 24 short ones would flatter the host.
    setup_s, around = [], [_time_reference(SETUP_REFERENCE_ROUNDS)]
    service = endpoint = None
    for _build in range(config["builds"]):
        if endpoint is not None:
            endpoint.stop()
            service.close()
            service = endpoint = None
        shutil.rmtree(scratch, ignore_errors=True)
        gc.collect()
        started = time.perf_counter()
        service = workloads.build_stack(spec, base, inventory, scratch if spec.mutates else None)
        endpoint = SparqlEndpoint(service).start()
        setup_s.append(time.perf_counter() - started)
        around.append(_time_reference(SETUP_REFERENCE_ROUNDS))
    setup_reference_s = [percentile(before + after, 25) for before, after in zip(around, around[1:])]
    _reply({"port": endpoint.port, "setup_s": setup_s, "setup_reference_s": setup_reference_s, "pid": os.getpid()})

    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "stop":
                break
            if op == "ref":
                _reply({"ref_s": _time_reference(1)[0]})
            elif op == "cpu":
                _reply({"cpu_s": time.process_time()})
            elif op == "shed":
                _reply({"shed": endpoint.gate.shed})
            else:
                _reply({"ack": workloads.apply_write(service, op, command.get("batch"), batches)})
    finally:
        endpoint.stop()
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)
    _reply({"peak_rss_mb": _peak_rss_kb() / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
