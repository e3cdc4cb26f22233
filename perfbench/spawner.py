"""Runs benchmark child processes one at a time on behalf of run.py.

A child's peak RSS (ru_maxrss) includes the memory of the process it was
forked from, so children are started from this small process rather
than from run.py, which holds numpy, scipy and networkx.  Reads one
JSON request per line on stdin ({"argv", "cwd", "env", "out", "err",
"timeout"}) and answers with one JSON line: wall seconds from spawn to
exit, the same time in reference seconds, peak RSS in MB, exit code and
whether the timeout killed it.

On a shared host the speed of a CPU swings by up to 2x within seconds,
as other tenants come and go.  So this process pins itself, and thereby
every child, to one CPU, and a thread times a fixed chunk of work on
that CPU every PROBE_INTERVAL_S while the child runs.  A child's
reference seconds are its wall seconds times its mean speed relative to
the reference speed, at which one chunk takes PROBE_REFERENCE_S: the
time the child would have taken on a steady CPU of that speed.  The
probes take about 4% of the CPU the child runs on.
"""

import json
import os
import subprocess
import sys
import threading
import time

PROBE_ROUNDS = 2000
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.0005


def probe() -> float:
    """Seconds of one fixed chunk of pure-Python dict, tuple and integer
    work, the kind forge does."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - start


class SpeedProbe(threading.Thread):
    """Times probe() every PROBE_INTERVAL_S while `active` is set."""

    def __init__(self):
        super().__init__(daemon=True)
        self.active = threading.Event()
        self.lock = threading.Lock()
        self.samples: list = []

    def run(self):
        while True:
            self.active.wait()
            time.sleep(PROBE_INTERVAL_S)
            if self.active.is_set():
                seconds = probe()
                with self.lock:
                    self.samples.append(seconds)

    def take(self) -> list:
        with self.lock:
            samples, self.samples = self.samples, []
        return samples


def run(req: dict, speed: SpeedProbe) -> dict:
    killed = threading.Event()
    speed.take()
    before = probe()
    speed.active.set()
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)

        def expire():
            killed.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    speed.active.clear()
    samples = [before, *speed.take(), probe()]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "reference_seconds": seconds * sum(PROBE_REFERENCE_S / t for t in samples) / len(samples),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": killed.is_set(),
    }


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = SpeedProbe()
    speed.start()
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), speed)), flush=True)


if __name__ == "__main__":
    main()
