"""Process, timing and host helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (``perfbench/`` lives in it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env(run_dir: str) -> Dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, temp files inside the run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = run_dir
    env.pop("REPRO_SCALAR_BACKEND", None)
    env.pop("REPRO_PICKLE_TRANSPORT", None)
    return env


@dataclass
class ProcessRun:
    """One finished child process."""

    wall_s: float
    maxrss_mib: float
    returncode: int
    stdout: str
    stderr: str


class Spawner:
    """Starts CLI processes through the small helper in ``spawner.py``.

    Create it before building any design, so the helper's peak resident
    set (which Linux carries into every child it starts) stays small.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: Sequence[str], run_dir: str, tag: str) -> ProcessRun:
        """Run ``argv`` to completion, timed from spawn to exit.

        Output goes to files in ``run_dir`` (no pipe can fill up and stall
        the child).  ``maxrss_mib`` is the ``wait4`` peak resident set: the
        largest of the process and the descendants it waited for.
        """
        out_path = os.path.join(run_dir, f"{tag}.out")
        err_path = os.path.join(run_dir, f"{tag}.err")
        self._proc.stdin.write(json.dumps({
            "argv": list(argv), "cwd": ROOT, "env": child_env(run_dir),
            "stdout": out_path, "stderr": err_path,
        }) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        with open(out_path) as handle:
            stdout = handle.read()
        with open(err_path) as handle:
            stderr = handle.read()
        return ProcessRun(reply["wall_s"], reply["maxrss_kib"] / 1024.0,
                          reply["returncode"], stdout, stderr)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def tree_peak_rss_mib(pid: int) -> float:
    """Largest ``VmHWM`` over a running process and its descendants.

    ``VmHWM`` is the peak resident set of a process's current image, which
    starts afresh at ``execve`` (unlike ``ru_maxrss``).
    """
    peak_kib, pending = 0, [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.MULTILINE)
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except OSError:  # exited meanwhile
            continue
        if match:
            peak_kib = max(peak_kib, int(match.group(1)))
    return peak_kib / 1024.0


def repro_cli(*args: str) -> List[str]:
    """argv of one ``repro`` CLI command."""
    return [sys.executable, "-m", "repro.cli", *args]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


#: Steps of the host-speed probe loop (~40 ms on a 2-CPU container).
PROBE_STEPS = 300_000


def probe_s() -> float:
    """Time of a fixed pure-Python loop: a reading of the host's speed now."""
    began = time.perf_counter()
    table: Dict[int, int] = {}
    for step in range(PROBE_STEPS):
        table[step % 1000] = table.get(step % 1000, 0) + step
    return time.perf_counter() - began


class HostSpeed:
    """Timed samples, each between two host-speed probes.

    A shared host can, for seconds at a time, run all code markedly slower
    (about 1.6x on the 2-vCPU container the benchmark was tuned on), which
    moves a probe loop and the program alike.
    :meth:`median` therefore scales every sample by the fastest probe of
    the run over the mean of the probes right before and right after it —
    the sample's wall time at the fastest host speed seen in the run — and
    takes the median.  :meth:`raw_median` is the plain median.  (A probe
    taken *while* a sample runs would share the CPU core with it.)
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[Tuple[float, float, float]]] = defaultdict(list)
        self._fastest = float("inf")

    @contextlib.contextmanager
    def sample(self, name: str):
        """Time the ``with`` body as one sample of ``name``."""
        before = probe_s()
        began = time.perf_counter()
        yield
        elapsed = time.perf_counter() - began
        after = probe_s()
        self._fastest = min(self._fastest, before, after)
        self._samples[name].append((elapsed, before, after))

    def median(self, name: str) -> float:
        return median([
            elapsed * self._fastest / ((before + after) / 2)
            for elapsed, before, after in self._samples[name]
        ])

    def raw_median(self, name: str) -> float:
        return median([elapsed for elapsed, _, _ in self._samples[name]])

    def count(self, name: str) -> int:
        return len(self._samples[name])


def host_record() -> Dict[str, object]:
    """The host a result was measured on."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load_1m": os.getloadavg()[0],
    }


def wait_for(predicate, timeout_s: float, what: str, poll_s: float = 0.05) -> None:
    """Poll ``predicate`` until true; raise ``RuntimeError`` on timeout."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout_s:.0f}s waiting for {what}")
        time.sleep(poll_s)


def stop_process(proc: Optional[subprocess.Popen], timeout_s: float = 30.0) -> None:
    """Terminate ``proc`` if still running and reap it."""
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
