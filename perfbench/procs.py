"""Server processes for the benchmark: launch, /proc readings, clean stop.

Every server runs ``python -m repro.cli serve --transport aio`` from the
checkout's ``src`` with BLAS pinned to one thread. It is stopped with
SIGINT, which takes the CLI's graceful ``finally`` path (front-end close,
then shard-worker shutdown). SIGTERM is never used: it skips that path
and leaves shard workers orphaned (see NOTES.md).

Process-tree readings come from ``/proc``: peak RSS (``VmHWM``) and CPU
time (``schedstat``) summed over the server and its descendants.
"""

from __future__ import annotations

import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS thread everywhere: default OpenBLAS threading made in-process
#: trace matching swing between 53k and 149k frames/s on a 2-vCPU host.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

def pin_environment() -> None:
    """Pin this process's BLAS threads (call before numpy is imported)."""
    os.environ.update(PINNED_ENV)


def host_stamp() -> Dict[str, object]:
    """The host a result describes: CPUs, CPU model, versions, pinning."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; it ends at the
    # last ')'. Field 3 (state) is index 0 of what follows.
    return text[text.rindex(")") + 2 :].split()


def _identity(pid: int) -> Optional[Tuple[int, str]]:
    """(pid, start time) — survives pid reuse checks; None when gone."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] in ("Z", "X"):
        return None
    return pid, fields[19]


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            tree.append(child)
            frontier.append(child)
    return tree


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def host_cpu_ticks() -> List[int]:
    """The machine's ``/proc/stat`` CPU counters (user … steal)."""
    first_line = Path("/proc/stat").read_text().split("\n", 1)[0]
    return [int(x) for x in first_line.split()[1:9]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU seconds every thread of ``pids`` has run so far.

    Read from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds). Unlike
    wall time it leaves out the time the hypervisor gave to other guests
    (steal), which swung from 1% to 27% of a phase on a shared VM.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
            except OSError:
                continue
            total += int(text.split()[0])
    return total * 1e-9


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class ServerError(RuntimeError):
    """The server failed to start, or did not stop cleanly."""


class Server:
    """One ``tafloc-repro serve --transport aio`` process.

    Args:
        sites: Scenario names to serve (registration order matters for
            the in-process oracle, which registers them the same way).
        seed: The server's master ``--seed``.
    """

    def __init__(self, sites: Sequence[str], seed: int) -> None:
        self.sites = tuple(sites)
        self.seed = int(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.launched_at = 0.0
        self.address = ""

    def command(self) -> List[str]:
        return [
            sys.executable, "-m", "repro.cli", "--seed", str(self.seed),
            "serve", "--sites", *self.sites,
            "--transport", "aio", "--listen", "127.0.0.1:0",
        ]

    def start(self, timeout: float = 120.0) -> str:
        """Launch and wait for the listening address (``tcp://h:p``)."""
        env = dict(os.environ)
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = str(SRC)
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command(),
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = self.launched_at + timeout
        fd = self.proc.stdout.fileno()
        buffer = b""
        with selectors.DefaultSelector() as selector:
            # Raw reads on the descriptor: a buffered readline could pull
            # the "listening at" line into Python's buffer where select()
            # no longer sees it.
            selector.register(fd, selectors.EVENT_READ)
            while not self.address:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    self.kill()
                    raise ServerError(f"server did not listen: {buffer!r}")
                chunk = os.read(fd, 65536)
                if not chunk:
                    self.kill()
                    raise ServerError(f"server exited early: {buffer!r}")
                buffer += chunk
                for line in buffer.decode(errors="replace").split("\n")[:-1]:
                    if line.startswith("listening at tcp://"):
                        self.address = line.split("listening at ", 1)[1].strip()
        return self.address

    def tree(self) -> List[int]:
        """The server and its live descendants (shard workers)."""
        return descendants(self.proc.pid) if self.proc is not None else []

    def stop(self, timeout: float = 30.0) -> List[int]:
        """SIGINT, wait, and return every process of the tree that did not
        end by itself (the server too, when it ignored the SIGINT).

        Those are SIGKILLed before returning, so the benchmark never
        leaves processes behind; the caller fails the run on any.
        """
        if self.proc is None:
            return []
        tree = [ident for ident in map(_identity, self.tree()) if ident]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        stubborn = []
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stubborn.append(self.proc.pid)
            self.proc.kill()
            self.proc.communicate()
        deadline = time.perf_counter() + 5.0
        survivors = [ident for ident in tree if _identity(ident[0]) == ident]
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.05)
            survivors = [ident for ident in survivors if _identity(ident[0]) == ident]
        for pid, _ in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc = None
        return stubborn + [pid for pid, _ in survivors]

    def kill(self) -> None:
        """Hard stop after a failed start (tree included)."""
        if self.proc is None:
            return
        for pid in reversed(self.tree()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.communicate()
        self.proc = None
