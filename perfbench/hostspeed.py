"""Host-speed reference: a fixed pure-Python kernel timed next to the passes.

The benchmark shares a few cores of a busy host, and the host's speed
for interpreter work swings by up to 3x over seconds to minutes: the
same kernel takes anywhere from about 23 ms to 90 ms.  A run of
``--seconds`` cannot average such swings out, so host-time metrics of
the same code taken a few minutes apart disagree by more than any
useful bound.

``HostSpeed`` times one fixed kernel in a helper process before and
after every measured pass, on the CPU the benchmark process last ran
on (the host's phases can differ between CPUs, and the pass ran
there).  The helper runs this file with ``-I -S``:
it imports nothing from the program and shares none of its interpreter
state (garbage-collector settings, trace hooks, heap), so no change to
the program can move the kernel.

The host's slow phases hurt the program less than the kernel: when
the kernel takes twice as long, a pass takes about 2 ** 0.7 = 1.6
times as long.  ``HOST_SENSITIVITY`` is that exponent, measured from
the medians of ten-run sets taken in different host phases.  A pass's
*reference seconds* are its host seconds times
``(REFERENCE_KERNEL_S / kernel) ** HOST_SENSITIVITY``, with ``kernel``
the mean kernel time around it: about the time the pass would take on
a host where the kernel takes exactly ``REFERENCE_KERNEL_S``.  A change
that makes the program slower or faster moves reference seconds just
as it moves host seconds; a host phase that slows the pass as predicted
moves neither.

    python3 -I -S perfbench/hostspeed.py     # serve: one line in, one time out
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List

#: the kernel time that defines one reference second per host second
REFERENCE_KERNEL_S = 0.040

#: log pass time over log kernel time across host phases (see above)
HOST_SENSITIVITY = 0.7

#: kernel iterations; about 23-90 ms of interpreter work on a 2-core VM
KERNEL_ITERATIONS = 60_000


class _Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: "_Node | None") -> None:
        self.value = value
        self.link = link


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Allocation, attribute, dict and call work, like the simulator's."""
    table: dict = {}
    total = 0
    head = None
    for i in range(iterations):
        head = _Node(i, head if i % 64 else None)
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + head.value
        total += len(str(key)) if i & 7 == 0 else 1
    return total + sum(table.values())


def serve() -> int:
    """Time one kernel per line read from stdin until stdin closes."""
    kernel()
    for _ in sys.stdin:
        started = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - started!r}\n")
        sys.stdout.flush()
    return 0


def ref_scale(before: float, after: float) -> float:
    """Reference seconds per host second for work between two kernel times."""
    return (REFERENCE_KERNEL_S / ((before + after) / 2.0)) ** HOST_SENSITIVITY


def _last_cpu() -> "int | None":
    """The CPU this process last ran on (Linux), or None when unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            # the fields after the parenthesised command name; the CPU
            # is field 39 of the line, index 36 of these
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class HostSpeed:
    """The helper process and the kernel times it has reported."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> float:
        """Time the kernel once; returns and records its seconds."""
        cpu = _last_cpu()
        if cpu is not None:
            os.sched_setaffinity(self._helper.pid, {cpu})
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError(f"host-speed helper exited ({self._helper.poll()})")
        seconds = float(reply)
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        helper = self._helper
        if helper.poll() is None:
            try:
                helper.stdin.close()
                helper.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                helper.kill()
                helper.wait()
        helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(serve())
