"""Child-process hygiene for the end-to-end benchmark.

Every pass runs in a fresh child (an HTTP server or a library worker,
both started from ``child.py``).  This module owns their lifetime:

* every child gets its own process group, and an ``atexit`` hook kills
  whatever is still alive, so a crashed run leaves nothing behind;
* every wait has a deadline, so a hung child fails the workload
  instead of hanging the run;
* scratch directories live under ``out/tmp`` inside the checkout and
  are always removed.
"""

from __future__ import annotations

import atexit
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(OUT, "tmp")
CHILD = os.path.join(HERE, "child.py")
SPIN = os.path.join(HERE, "spin.py")

#: Deadline for a child to become ready / to answer one command.
READY_TIMEOUT_S = 60.0
COMMAND_TIMEOUT_S = 150.0

_live: List["Child"] = []
_dirs: List[str] = []
_spinners: List[subprocess.Popen] = []


class ChildError(RuntimeError):
    """A child died, hung past its deadline or answered garbage."""


def _cleanup() -> None:
    for child in list(_live):
        child.kill()
    for path in list(_dirs):
        remove_dir(path)
    for spinner in _spinners:
        spinner.kill()
    for spinner in _spinners:
        spinner.wait()
    del _spinners[:]


atexit.register(_cleanup)


def _on_signal(signum: int, frame: Any) -> None:
    # Turn SIGTERM/SIGINT into a normal exit so the atexit hook runs.
    raise SystemExit(128 + signum)


def install_signal_handlers() -> None:
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


def steady_cpus() -> None:
    """Give the load generator a core of its own and keep every core awake.

    This process keeps the first allowed CPU, the children it spawns get
    the others (``child.py`` applies ``E2E_CHILD_CPUS`` before its heavy
    imports).  Sharing cores, the scheduler put a run into one of two
    regimes: HTTP insert p50 read 0.5 ms or 0.75 ms for the whole run.

    Then one ``spin.py`` per CPU, until this process exits: a CPU with
    nothing to run halts, and the wake-up of a halted vCPU is what made
    sub-millisecond requests swing by 30% between runs (``spin.py``).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
        os.environ["E2E_CHILD_CPUS"] = ",".join(str(c) for c in cpus[1:])
    for cpu in cpus:
        _spinners.append(subprocess.Popen(
            [sys.executable, SPIN, str(cpu)],
            stdin=subprocess.DEVNULL, start_new_session=True,
        ))


def make_dir(label: str) -> str:
    """A fresh scratch directory inside the checkout."""
    os.makedirs(TMP, exist_ok=True)
    path = os.path.join(TMP, f"{label}-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    _dirs.append(path)
    return path


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if path in _dirs:
        _dirs.remove(path)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


class Child:
    """One spawned ``child.py`` process with line-oriented stdout."""

    def __init__(self, args: List[str], label: str):
        os.makedirs(OUT, exist_ok=True)
        self.label = label
        self.spawned_at = time.perf_counter()
        self._stderr = open(os.path.join(OUT, f"{label}.stderr"), "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # One str hash for every child: set iteration order decides how
        # soon the CN executor's top-k closes, and the same `schema`
        # query cost 16 ms under one hash seed and 28 ms under another.
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, CHILD] + args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=ROOT,
            start_new_session=True,  # own process group
        )
        self._buf = b""
        self.peak_rss_mb = 0.0
        _live.append(self)

    # -- line protocol --------------------------------------------------
    def read_line(self, timeout_s: float) -> str:
        """Next stdout line, or :class:`ChildError` at the deadline."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"{self.label}: no output within {timeout_s:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise ChildError(
                    f"{self.label}: exited with {self.proc.wait()} "
                    f"(see out/{self.label}.stderr)"
                )
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8")

    def call(self, command: Dict[str, Any], timeout_s: float = COMMAND_TIMEOUT_S) -> Dict[str, Any]:
        """Send one JSON command to a worker and wait for its reply."""
        self.proc.stdin.write(json.dumps(command).encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        reply = json.loads(self.read_line(timeout_s))
        if not reply.get("ok"):
            raise ChildError(f"{self.label}: {reply.get('error')}")
        return reply

    # -- lifetime -------------------------------------------------------
    def sample_rss(self) -> float:
        """Peak resident set (``VmHWM``) of the child so far, in MB."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(
                            self.peak_rss_mb, int(line.split()[1]) / 1024.0
                        )
        except OSError:
            pass
        return self.peak_rss_mb

    def kill(self) -> None:
        """SIGKILL the whole process group and reap it."""
        if self.proc.poll() is None:
            self.sample_rss()
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            try:
                stream.close()
            except OSError:
                pass
        if self in _live:
            _live.remove(self)


def git_commit() -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
