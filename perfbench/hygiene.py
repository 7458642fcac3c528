"""Run hygiene: a private work directory, and leak checks at the end."""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
from pathlib import Path

SHM = Path("/dev/shm")


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except FileNotFoundError:
        return set()


def children() -> list[int]:
    """Process ids whose parent is this process."""
    pid = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            found.append(int(entry))
    return found


class RunDir:
    """A fresh ``.perfbench/run-*`` directory inside the checkout.

    :meth:`close` removes it and reports leaks: a child process still
    alive (it is killed), or an entry ``/dev/shm`` did not hold when the
    run began.
    """

    def __init__(self, root: Path) -> None:
        base = root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._shm = _shm_entries()

    def close(self) -> list[str]:
        """Remove the directory; return one failure line per leak."""
        shutil.rmtree(self.path, ignore_errors=True)
        leaks = []
        for pid in children():
            leaks.append(f"hygiene: child process {pid} outlived the run")
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        new = sorted(_shm_entries() - self._shm)
        if new:
            leaks.append(f"hygiene: /dev/shm gained {new}")
        return leaks
