"""Program processes: start, read their lines, sample ``/proc``, stop."""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The cores every process is pinned to, so the host probe of a core
#: times the core the work ran on: the program's main process on
#: ``MAIN``; the load generator and a second program process on
#: ``SIDE`` (the same core when only one is available).
_ALLOWED = sorted(os.sched_getaffinity(0))
MAIN = _ALLOWED[0]
SIDE = _ALLOWED[1] if len(_ALLOWED) > 1 else MAIN


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class Program:
    """One program process started through ``launch.py``.

    ``role`` names it in the per-role diagnostics; it runs pinned to
    core ``cpu``.  With ``spans`` set the process is traced and writes
    its spans there when it exits.
    """

    _serial = itertools.count()

    def __init__(
        self,
        role: str,
        args: Sequence[str],
        *,
        src: Path,
        workdir: Path,
        cpu: int,
        spans: Optional[Path] = None,
    ) -> None:
        self.role = role
        self.cpu = cpu
        self.spans = spans
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = "0"
        command = [sys.executable, str(LAUNCHER)]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += list(args)
        self._stderr = open(workdir / f"{role}-{next(self._serial)}.err", "w+b")
        self._buffer = b""
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=str(workdir),
            env=env,
        )
        # Threads the program starts later inherit the pinning.
        os.sched_setaffinity(self.process.pid, {cpu})

    @property
    def pid(self) -> int:
        return self.process.pid

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises when none comes in ``timeout``."""
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{self.role}: no output in {timeout} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.role} exited with code {self.process.wait()}: "
                        f"{self.error_tail()}"
                    )
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def wait_for(self, prefix: str, timeout: float) -> str:
        """Skip lines until one starts with ``prefix``; return it."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.readline(max(0.0, deadline - time.monotonic()))
            if line.startswith(prefix):
                return line

    def json_lines(self) -> List[Dict]:
        """Every JSON line left on stdout, once the process has exited."""
        rest = self._buffer + self.process.stdout.read()
        self._buffer = b""
        return [
            json.loads(line)
            for line in rest.decode().splitlines()
            if line.startswith("{")
        ]

    def address(self, prefix: str, timeout: float = 60.0) -> Tuple[str, int]:
        """The ``host:port`` at the end of the banner line starting with
        ``prefix`` (``serving ... on 127.0.0.1:PORT``)."""
        line = self.wait_for(prefix, timeout)
        host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
        return host, int(port)

    def start_trace(self) -> None:
        if self.spans is not None:
            self.process.send_signal(signal.SIGUSR1)

    def stop_trace(self) -> None:
        if self.spans is not None:
            self.process.send_signal(signal.SIGUSR2)

    def error_tail(self) -> str:
        if self._stderr.closed:
            return ""
        self._stderr.flush()
        self._stderr.seek(0)
        return self._stderr.read().decode(errors="replace")[-2000:]

    def wait(self, timeout: float) -> int:
        """Wait for a requested exit; kill the process if it hangs."""
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{self.role} did not exit in {timeout} s")
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def close(self) -> None:
        self.kill()
        self.process.stdout.close()
        self._stderr.close()
