"""CPU time and resident memory of the driver and its Ray worker processes.

Read straight from ``/proc``: the driver is this process, the workers are
its descendants whose command line starts with ``ray::`` (Ray sets that
title on every worker). Ray's own daemons (GCS, raylet, agents) are not
counted.
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode()
    except OSError:  # the process exited
        return None
    # the command name (field 2) may hold spaces; fields after it are fixed
    return raw[raw.rindex(")") + 2:].split()


def worker_pids(root: int | None = None) -> list[int]:
    """Descendants of ``root`` (default: this process) titled ``ray::``."""
    root = os.getpid() if root is None else root
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parent[int(name)] = int(fields[1])
    out = []
    for pid in parent:
        p = parent[pid]
        while p > 1 and p != root:
            p = parent.get(p, 0)
        if p != root or pid == root:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if fh.read(5) == b"ray::":
                    out.append(pid)
        except OSError:
            continue
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User plus system CPU seconds of each live process in ``pids``."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except OSError:
            continue
    return total


def host_ticks() -> tuple[int, int, int]:
    """(busy, total, steal) jiffies of the whole host, from ``/proc/stat``;
    busy counts every process, neighbours in other containers included."""
    with open("/proc/stat") as fh:
        v = [int(x) for x in fh.readline().split()[1:]]
    idle = v[3] + v[4]  # idle + iowait
    return sum(v) - idle, sum(v), v[7]


def host_load(before: tuple[int, int, int], after: tuple[int, int, int]) -> dict:
    """Busy hardware threads and steal share between two ``host_ticks``."""
    busy, total, steal = (a - b for a, b in zip(after, before))
    n = os.cpu_count() or 1
    return {"host_busy_cpus": n * busy / max(total, 1),
            "host_steal_share": steal / max(total, 1)}


class Meter:
    """Per-job CPU seconds and the peak summed RSS of driver plus workers.

    ``begin()``/``end()`` bracket one job: CPU is the growth of every
    process's counter between the two (a worker that appears counts from
    zero). A sampler thread sums RSS every ``interval`` seconds while a job
    is open and keeps the maximum.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self._interval = interval
        self._pids = [os.getpid()]
        self._cpu0: dict[int, float] = {}
        self._open = threading.Event()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.peak_rss = 0
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Meter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _sample(self) -> None:
        while not self._stop.wait(self._interval):
            if self._open.is_set():
                with self._lock:
                    pids = list(self._pids)
                rss = rss_bytes(pids)
                with self._lock:
                    self.peak_rss = max(self.peak_rss, rss)

    def begin(self) -> None:
        pids = [os.getpid(), *worker_pids()]
        with self._lock:
            self._pids = pids
        self._cpu0 = cpu_seconds(pids)
        self._open.set()

    def end(self) -> float:
        """Close the job; return its CPU seconds."""
        self._open.clear()
        pids = [os.getpid(), *worker_pids()]
        with self._lock:
            self._pids = pids
            self.peak_rss = max(self.peak_rss, rss_bytes(pids))
        cpu1 = cpu_seconds(pids)
        return sum(c - self._cpu0.get(pid, 0.0) for pid, c in cpu1.items())
