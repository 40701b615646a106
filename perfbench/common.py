"""Shared plumbing: paths, program processes, percentiles, the run record.

Everything the benchmark reads or writes stays inside the checkout:
scratch data lives under ``.perfbench_work/`` and is removed when the run
ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)
    #: Artifact digests per config (batch workloads), for baseline.json.
    digests: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def child_env() -> Dict[str, str]:
    """Environment of the program's processes: ``src`` importable and no
    ``REPRO_*`` overrides, so every run sees the program's defaults.
    Python may write its bytecode caches, as an installed program has
    them: only the first start in a fresh checkout compiles ``src``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def use_source_tree() -> None:
    """Import ``repro`` from ``src`` in this process (in-process checks),
    with the same defaults as the program's own processes."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def workdir(tag: str) -> Iterator[Path]:
    """A fresh scratch directory for one run, removed afterwards."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still in use


def reap_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a process's session (pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(args: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a program process to completion in its own session.

    The session is killed afterwards, so no forked worker outlives the
    run; on timeout it is killed first and :class:`BenchError` raised.
    """
    proc = subprocess.Popen(list(args), cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_session(proc)
        proc.communicate()
        raise BenchError(f"{' '.join(args[1:3])} exceeded {timeout:.0f} s")
    finally:
        reap_session(proc)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of an empty sample")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def environment() -> Dict[str, str]:
    """Host facts recorded with every run."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=10)
            if head.returncode == 0:
                commit = head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cores": str(cores), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "load1": f"{os.getloadavg()[0]:.2f}"}


def load_baseline() -> Dict[str, Any]:
    """``baseline.json``: the default and held-out seeds and their digests."""
    try:
        return json.loads(BASELINE.read_text())
    except FileNotFoundError:
        return {}


def record_digests(workload: str, seed: int, digests: Dict[str, Any]) -> None:
    """Store one run's artifact digests under its workload and seed."""
    from spec import DEFAULT_SEED, HELD_OUT_SEED

    baseline = load_baseline()
    baseline["default_seed"] = DEFAULT_SEED
    baseline["held_out_seed"] = HELD_OUT_SEED
    baseline.setdefault("digests", {}).setdefault(workload, {})[
        str(seed)] = digests
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                        + "\n")
