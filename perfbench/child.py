"""Run one piece of benchmark work in a forked child and bring back its result.

The parent has imported toricfib and built the workload's inputs, and
never runs workload code itself, so every child starts from the same
state: the program's caches hold only what set-up put there, as in a
fresh ``toricfib`` process.  At most one child exists at a time.

The work function receives a ``done`` callback and calls it when the
measured part ends; the output checks that follow are neither timed,
traced nor counted in the section-cache figures.
"""

from __future__ import annotations

import cProfile
import marshal
import os
import signal
import sys
from dataclasses import dataclass, field
from pstats import add_func_stats
from time import perf_counter

from layers import install_point_counter

# A child that runs longer than this is killed and its work counted failed.
CHILD_TIMEOUT_S = 150


@dataclass
class ChildResult:
    value: object
    error: str | None


@dataclass
class Runner:
    """Forks one child per call and sums the time of each child's measured
    work; when tracing, profiles that work too and sums the profiles and
    section-cache counts."""

    trace: bool
    work_s: float = 0.0
    stats: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    points_kept: int = 0

    def call(self, fn, args) -> ChildResult:
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child_main(fn, args, self.trace, write_fd)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pid = 0
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            return ChildResult(None, f"child ended with status {code}")
        payload = marshal.loads(data)
        self.work_s += payload.get("seconds", 0.0)
        self.add_stats(payload.get("stats") or {})
        hits, misses = payload.get("cache", (0, 0))
        self.cache_hits += hits
        self.cache_misses += misses
        self.points_kept += payload.get("points_kept", 0)
        return ChildResult(payload["value"], payload["error"])

    def add_stats(self, stats: dict) -> None:
        for key, value in stats.items():
            self.stats[key] = add_func_stats(
                self.stats.get(key, (0, 0, 0, 0, {})), value)


def section_cache_counts() -> tuple[int, int]:
    """Hits and misses of the section-cone cache in fibration, or zeros
    when the program has no such cache."""
    from toricfib import fibration
    info = getattr(getattr(fibration, "_cached_section", None), "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits, info.misses


def _child_main(fn, args, trace: bool, write_fd: int):
    signal.alarm(CHILD_TIMEOUT_S)
    snapshot = {}
    prof = cProfile.Profile() if trace else None
    counts = install_point_counter() if trace else {}

    def done():
        snapshot["seconds"] = perf_counter() - t0
        if prof is not None:
            prof.disable()
            prof.create_stats()
            snapshot["stats"] = prof.stats
        snapshot["cache"] = section_cache_counts()
        snapshot.update(counts)

    try:
        if prof is not None:
            prof.enable()
        t0 = perf_counter()
        payload = {"value": fn(*args, done), "error": None, **snapshot}
    except Exception as exc:  # the child's boundary: report, never re-raise
        payload = {"value": None, "error": f"{type(exc).__name__}: {exc}"}
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(payload))
    finally:
        os._exit(0)
