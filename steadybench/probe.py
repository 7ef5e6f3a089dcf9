"""The host-speed probe: a fixed reference loop timed all through a run.

    python3 probe.py CPU FILE   # prints "ready", then times chunks into FILE

A shared host's own speed drifts by tens of percent over minutes, and
each of its cores drifts on its own.  A program's per-op time drifts
with the core it runs on.  So the benchmark pins each process to a core,
and runs one probe per core beside the program for the whole run: every
:data:`PERIOD_S` the probe runs one fixed chunk of pure-Python and NumPy
work (about 1 ms, so under 3% of the core) and writes down when the
chunk started and how much thread CPU time it took.  CPU time, not wall
time, so that waiting for the core the program holds does not count.

On a 2-core host, 3.4 s passes of the paper's experiments E1..E11 varied
by 12% (coefficient of variation) over 100 s.  Their time over the probe
figure of the same core varied by 4%; over that of the other core, by 8%.

The hypervisor also takes a core away now and then ("steal"): the
program gets less of the wall clock, but no chunk runs slower.  So each
chunk line also records the core's steal and busy jiffies from
``/proc/stat``, and a core's figure over an interval is its chunk time
divided by the share of the core's busy time that was not stolen.

:class:`HostProbe` starts the probes, and :meth:`HostProbe.scale` gives
``REFERENCE_MS`` over the mean chunk time in an interval, weighted over
the cores by the CPU time the program used on each.  The gated metrics
are scaled by it, so they read as if the host had run at its reference
speed throughout.
"""

from __future__ import annotations

import subprocess
import sys
import time
import os
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Seconds from the start of one chunk to the start of the next.
PERIOD_S = 0.04

#: The mean chunk time, in ms, that the gated metrics are scaled to: the
#: probe's typical figure on a 2-core 2.1 GHz Intel Xeon VM.
REFERENCE_MS = 0.9

#: The share of chunks trimmed from each end before the mean, so a chunk
#: cut by an interrupt does not move it.
TRIM = 0.1


def chunk(data) -> None:
    """The fixed reference work: dictionary updates and a NumPy sort."""
    totals: dict = {}
    for i in range(3_000):
        totals[i % 512] = totals.get(i % 512, 0) + i * 3 % 7
    np.sort(data)


def core_jiffies(cpu: int) -> Tuple[int, int]:
    """``(steal, busy)`` jiffies of core ``cpu`` so far; busy counts every
    state but idle and I/O wait, steal included."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                user, nice, system, idle, iowait, irq, softirq, steal = (
                    int(field) for field in line.split()[1:9]
                )
                return steal, user + nice + system + irq + softirq + steal
    raise OSError(f"no core {cpu} in /proc/stat")


def main(cpu: int, path: str) -> int:
    """Time chunks on core ``cpu`` into ``path`` until killed."""
    os.sched_setaffinity(0, {cpu})
    data = np.random.default_rng(0).random(20_000)
    chunk(data)
    with open(path, "w") as out:
        print("ready", flush=True)
        next_start = time.perf_counter()
        while True:
            started = time.perf_counter()
            thread_start = time.thread_time()
            chunk(data)
            used = time.thread_time() - thread_start
            steal, busy = core_jiffies(cpu)
            out.write(f"{started:.6f} {used * 1000.0:.6f} {steal} {busy}\n")
            out.flush()
            next_start += PERIOD_S
            time.sleep(max(0.0, next_start - time.perf_counter()))


class HostProbe:
    """One probe process per core of ``cpus``.

    ``time.perf_counter`` reads the same system-wide monotonic clock in
    every process on Linux, so the probes' chunk times line up with the
    benchmark's own marks.
    """

    def __init__(self, directory: Path, cpus: Sequence[int]) -> None:
        self.paths = {cpu: directory / f"probe-{cpu}.txt" for cpu in cpus}
        self.processes = []
        #: Per core: (chunk start, chunk ms, steal jiffies, busy jiffies).
        self.samples: Dict[int, List[Tuple[float, float, int, int]]] = {}
        for cpu, path in self.paths.items():
            process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(cpu), str(path)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            self.processes.append(process)
            if process.stdout.readline().strip() != "ready":
                self.close()
                raise RuntimeError(f"the host probe on core {cpu} did not start")

    def stop(self) -> None:
        """Stop the probes and keep every chunk they timed."""
        self.close()
        for cpu, path in self.paths.items():
            self.samples[cpu] = [
                (float(fields[0]), float(fields[1]),
                 int(fields[2]), int(fields[3]))
                for fields in map(str.split, path.read_text().splitlines())
                if len(fields) == 4  # the last line may be cut short
            ]

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()

    def ms(self, lo: float, hi: float, cpu: int) -> float:
        """Core ``cpu``'s figure over ``[lo, hi)``: the trimmed mean time
        (ms) of the chunks started then, over the unstolen share."""
        used = [sample[1] for sample in self._inside(lo, hi, cpu)]
        return trimmed_mean(used) / (1.0 - self.steal(lo, hi, cpu))

    def steal(self, lo: float, hi: float, cpu: int) -> float:
        """The share of core ``cpu``'s busy time stolen in ``[lo, hi)``."""
        inside = self._inside(lo, hi, cpu)
        if len(inside) < 2:
            return 0.0
        busy = inside[-1][3] - inside[0][3]
        return (inside[-1][2] - inside[0][2]) / busy if busy > 0 else 0.0

    def _inside(self, lo: float, hi: float, cpu: int):
        return [sample for sample in self.samples[cpu] if lo <= sample[0] < hi]

    def scale(self, lo: float, hi: float, busy: Dict[int, float]) -> float:
        """``REFERENCE_MS`` over the chunk time in ``[lo, hi)``, averaged
        over the cores with weights ``busy`` (CPU seconds the program
        used on each): above 1 when the host ran slow."""
        weight = sum(busy.values())
        ms = sum(w * self.ms(lo, hi, cpu) for cpu, w in busy.items() if w)
        return REFERENCE_MS * weight / ms


def trimmed_mean(values: List[float]) -> float:
    """Mean after dropping :data:`TRIM` of the values at each end."""
    if not values:
        raise ValueError("the host probe timed no chunk in the interval")
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
