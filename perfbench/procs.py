"""Child processes of the system under test: the CLI and the server.

Each child is reaped with ``os.wait4`` so its own resource usage is
known: user+system CPU and peak RSS of the child *and* every
descendant it waited for (the ``repro batch`` pool workers).

Every child starts in a session (process group) of its own, and this
process registers as the child subreaper, so descendants a child leaves
behind (a ``multiprocessing`` resource tracker outliving its batch, pool
workers of a killed batch) are re-parented here.  Reaping a child also
sweeps its group: stragglers get a short grace period to exit on their
own, then SIGKILL, and every one is waited for.  ``stop_all()`` does the
same for whatever is still running on any way out of the benchmark.
"""

from __future__ import annotations

import ctypes
import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 2.0  # a group's stragglers may take this long to exit alone

_live: dict[int, "Child | Server"] = {}  # pgid -> started, not yet swept


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux).

    Without it orphans go to init, which still ends them but out of
    this process's sight; the group sweep then only waits for them.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False  # gone, or the id now names a group not ours
    return True


def _reap_group(pgid: int) -> None:
    """Reap every ended member of group ``pgid`` that is our child."""
    while True:
        try:
            info = os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG)
        except ChildProcessError:
            return
        if info is None:
            return


def sweep_group(pgid: int, grace_s: float = GRACE_S) -> None:
    """Wait for group ``pgid`` to empty, escalating as time passes.

    Members get ``grace_s`` to exit alone, then SIGTERM, then after
    another ``GRACE_S`` SIGKILL.  A ``multiprocessing`` resource tracker
    ignores SIGTERM, so it outlives the pool workers that hold its pipe
    open and still unlinks any shared memory a killed batch leaked.
    """
    started = time.monotonic()
    steps = [(grace_s, signal.SIGTERM), (grace_s + GRACE_S, signal.SIGKILL)]
    while True:
        _reap_group(pgid)
        if not _group_alive(pgid):
            break
        waited = time.monotonic() - started
        if waited > grace_s + GRACE_S + 30.0:
            raise SystemExit(f"process group {pgid} did not end")
        while steps and waited >= steps[0][0]:
            try:
                os.killpg(pgid, steps.pop(0)[1])
            except ProcessLookupError:
                pass
        time.sleep(0.005)
    _live.pop(pgid, None)


def stop_all() -> None:
    """Stop, reap and sweep every child still registered, then orphans.

    Also stops this process's own ``multiprocessing`` resource tracker
    (started by an in-process pool), which would otherwise outlive it.
    """
    for child in list(_live.values()):
        child.abort()
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _children() -> list[int]:
    """This process's direct children, as the kernel lists them."""
    pids: list[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
    except OSError:
        pass
    return pids


def child_env() -> dict[str, str]:
    """The environment for ``python -m repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    return env


@dataclass
class Run:
    """A reaped child: exit code, wall, CPU (incl. descendants), RSS.

    On Linux a child's peak RSS includes its parent's high-water mark
    at spawn time, so ``maxrss_mb`` is the child's own only while
    ``parent_rss_mb`` (this process's peak when it spawned the child)
    is smaller.
    """

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    parent_rss_mb: float


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reap(proc: subprocess.Popen, started: float, parent_rss_mb: float,
          timeout_s: float) -> Run:
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    sweep_group(proc.pid)
    return Run(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        parent_rss_mb=parent_rss_mb,
    )


class Child:
    """A started ``python -m repro ...`` process."""

    def __init__(self, args: list[str], cwd: Path):
        self.parent_rss_mb = _self_rss_mb()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        _live[self.proc.pid] = self

    def abort(self) -> None:
        """Terminate the child's whole group and reap it (error paths)."""
        if self.proc.returncode is None:
            try:
                os.killpg(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            _reap(self.proc, self.started, self.parent_rss_mb, GRACE_S)

    def wait_run(self, timeout_s: float = 120.0) -> Run:
        """Reap the child; wall time counts from spawn."""
        return _reap(self.proc, self.started, self.parent_rss_mb,
                     timeout_s)


def run_cli(args: list[str], cwd: Path, timeout_s: float = 120.0) -> Run:
    """Run ``python -m repro ARGS`` to completion; wall from spawn."""
    return Child(args, cwd).wait_run(timeout_s)


class Server:
    """A ``repro serve --port 0`` child (default settings otherwise)."""

    def __init__(self, cwd: Path):
        self.parent_rss_mb = _self_rss_mb()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=cwd, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        _live[self.proc.pid] = self
        self.usage: Run | None = None
        self.address = self._await_announce(60.0)

    def _await_announce(self, timeout_s: float) -> tuple[str, int]:
        fd = self.proc.stderr.fileno()
        buf = b""
        deadline = time.monotonic() + timeout_s
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise SystemExit(
                    f"repro serve did not announce its address: {buf!r}"
                )
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        return host, int(port)

    def stop(self) -> Run:
        """SIGTERM (graceful drain), reap, and return the usage."""
        if self.usage is None:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
            self.usage = _reap(self.proc, self.started,
                               self.parent_rss_mb, 30.0)
            self.proc.stderr.close()
        return self.usage

    def abort(self) -> None:
        """Stop gracefully, as on the normal path; the reap sweeps."""
        self.stop()
