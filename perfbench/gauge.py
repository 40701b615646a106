"""A CPU-speed gauge, and timings scaled to one reference speed.

    python3 perfbench/gauge.py --out SAMPLES.json

The benchmark runs on small shared virtual machines whose cores change
speed by up to about 1.5x, for seconds to minutes at a time, as other
tenants load the host.  The change shows in CPU time as much as in wall
time, so neither can be compared between runs as it stands.

While a run measures, this process runs beside the program.  Every
``PERIOD`` seconds it pins itself to the core that was busiest since its
last reading (the core the program runs on), runs a fixed pure-Python
loop twice and records the CPU time of the second loop.
:meth:`Gauge.scale` multiplies a measured interval by the mean of
``REFERENCE_MS`` over the loop times around it, so every timing the
benchmark reports is in seconds at one fixed core speed: the speed at
which the loop takes ``REFERENCE_MS``.  The loop is the benchmark's own
code, so a change in the program's speed shows in full; the gauge costs
about 1% of one core.  It counts CPU time rather than wall time, so the
program's own load on a core does not read as a slower core.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common

#: Seconds between two readings.
PERIOD = 0.1
#: Iterations of the loop, about half a millisecond of CPU time.
LOOP_ITERATIONS = 4000
#: CPU milliseconds of one loop at the reference speed: about what it
#: reads on a busy core of the 2-core Xeon VMs the benchmark was tuned on.
REFERENCE_MS = 0.45
#: Readings this many seconds before or after an interval also count for
#: it, so that a run of a few milliseconds is scaled by some 20 readings.
PAD = 1.0
#: Share of the readings near an interval dropped at each end before the
#: mean, so that a reading an interrupt lengthened does not count.
TRIM = 0.1
STOP_TIMEOUT = 10.0


def _loop() -> int:
    total = 0
    table = {}
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return total


def _busy_ticks() -> Dict[int, int]:
    """Busy clock ticks of every core so far, from ``/proc/stat``."""
    busy = {}
    with open("/proc/stat") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                ticks = [int(x) for x in fields]
                # user, nice, system, irq and softirq; not idle,
                # iowait or steal
                busy[int(name[3:])] = sum(ticks[:7]) - ticks[3] - ticks[4]
    return busy


def sample_until_stopped(out: Path) -> None:
    """Take readings until SIGTERM, then write them to ``out``.

    Each reading runs on the core that was busiest since the last one:
    the host slows single cores, so only a reading on the core the
    program runs on tracks the program's speed.  Ties go round the cores.
    """
    stopping: List[int] = []
    signal.signal(signal.SIGTERM, lambda *__: stopping.append(1))
    cpus = sorted(os.sched_getaffinity(0))
    samples: List[Tuple[float, float]] = []
    last = _busy_ticks()
    k = 0
    while not stopping:
        now = _busy_ticks()
        spent = {c: now.get(c, 0) - last.get(c, 0) for c in cpus}
        last = now
        most = max(spent.values())
        busiest = [c for c in cpus if spent[c] == most]
        os.sched_setaffinity(0, {busiest[k % len(busiest)]})
        _loop()
        at = time.monotonic()
        started = time.thread_time()
        _loop()
        samples.append((at, (time.thread_time() - started) * 1000.0))
        if k == 0:
            print("ready", flush=True)
        k += 1
        time.sleep(PERIOD)
    out.write_text(json.dumps(samples))


def trimmed_mean(values: Sequence[float]) -> float:
    xs = sorted(values)
    cut = int(len(xs) * TRIM)
    kept = xs[cut:len(xs) - cut] or xs
    return sum(kept) / len(kept)


class Gauge:
    """The gauge process for the length of a ``with`` block.

    Timestamps are ``time.monotonic()`` values, which every process of the
    machine shares, so the program's processes can time intervals that
    are scaled here.
    """

    def __init__(self, work: Path) -> None:
        self._out = work / "gauge.json"
        self._proc: Optional[subprocess.Popen] = None
        self._at: List[float] = []
        self._speed: List[float] = []

    def __enter__(self) -> "Gauge":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--out", str(self._out)],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise common.BenchError("the speed gauge did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        if self._out.is_file():
            samples = json.loads(self._out.read_text())
            self._at = [at for at, __ in samples]
            self._speed = [REFERENCE_MS / ms for __, ms in samples]

    def _stop(self) -> None:
        proc = self._proc
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def factor(self, start: float, end: float) -> float:
        """Core speed around ``[start, end]`` as a multiple of the
        reference speed."""
        lo = bisect.bisect_left(self._at, start - PAD)
        hi = bisect.bisect_right(self._at, end + PAD)
        if lo >= hi:
            raise common.BenchError(f"no speed reading near the interval "
                                    f"{start:.3f}-{end:.3f}")
        return trimmed_mean(self._speed[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> str:
        """A report line: how fast the cores ran against reference."""
        if not self._speed:
            return "gauge    no readings"
        speeds = sorted(self._speed)

        def at(q: float) -> float:
            return speeds[int(q * (len(speeds) - 1))]

        return (f"gauge    {len(speeds)} readings: core speed "
                f"{at(0.5):.3f}x reference (p10 {at(0.1):.3f}, "
                f"p90 {at(0.9):.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True,
                        help="where to write the readings")
    args = parser.parse_args(argv)
    sample_until_stopped(Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
