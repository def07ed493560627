"""Paths, scratch directories, child processes and host facts."""

from __future__ import annotations

import compileall
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every file a run writes lives under here (listed in .gitignore).
SCRATCH = ROOT / ".perfbench_tmp"


def precompile() -> None:
    """Byte-compile the program and the benchmark, so that set-up times
    measure imports rather than compilation."""
    for directory in (SRC / "repro", ROOT / "perfbench"):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise RuntimeError(f"cannot byte-compile {directory}")


class RunDir:
    """A per-run scratch directory plus the child processes of the run.

    Leaving the ``with`` block -- normally, on an exception or on SIGTERM,
    which is turned into ``SystemExit`` -- stops every child, waits for
    it, and removes the directory.
    """

    def __init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.children: list[subprocess.Popen] = []

    def __enter__(self) -> "RunDir":
        """Keep temp files and the default cache root of this process and
        its children inside the run directory, so the user's
        ``~/.cache/repro-vliw`` is never read or written."""
        signal.signal(signal.SIGTERM, _exit_on_signal)
        os.environ["TMPDIR"] = tempfile.tempdir = str(self.path)
        os.environ["REPRO_VLIW_CACHE"] = str(self.path / "default-cache")
        os.environ.pop("REPRO_VLIW_TRACE", None)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.children:
            stop(proc)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def mkdir(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True)
        return path

    def spawn(self, args: list[str]) -> subprocess.Popen:
        """Start ``python ARGS`` with the program and the benchmark on
        ``PYTHONPATH``; it is stopped when the run ends."""
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
        )
        self.children.append(proc)
        return proc


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def stop(proc: subprocess.Popen, *, interrupt: bool = False, timeout: float = 10.0) -> int:
    """Stop *proc* (SIGINT first when *interrupt*) and wait until it ended."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT if interrupt else signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (``VmHWM``), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host (``/proc/stat``)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else 0


def clock() -> tuple[float, float]:
    """``(monotonic seconds, cumulative CPU steal seconds)``.

    ``time.monotonic`` reads the system-wide ``CLOCK_MONOTONIC``, so
    readings taken in different processes can be subtracted.
    """
    return time.monotonic(), steal_ticks() / os.sysconf("SC_CLK_TCK")


def busy_s(start: tuple[float, float], end: tuple[float, float]) -> float:
    """Seconds between two :func:`clock` readings, less the CPU steal.

    On a shared VM the hypervisor runs other guests on this guest's vCPUs
    for seconds at a time and ``/proc/stat`` counts it as steal; between
    consecutive runs on one host it went from 0 to a third of the wall
    time, and wall-clock throughput with it.  Every workload here is a
    closed loop with one busy process at a time, so the steal over an
    interval is time the work was ready but held no CPU.  Steal is counted
    over all vCPUs; the cap of half the interval keeps the other vCPU's
    steal from cancelling the work's own time.
    """
    wall = end[0] - start[0]
    return wall - min(end[1] - start[1], wall / 2)


def host_record(start_steal: int) -> dict:
    """Facts recorded next to each run, to tell host noise from code."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    if not commit:  # a checkout without history: name the sources instead
        from repro.runner.cache import package_source_hash

        commit = f"src:{package_source_hash()}"
    return {
        "steal_ticks": steal_ticks() - start_steal,
        "loadavg": os.getloadavg(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "time_unix": time.time(),
    }


#: Seconds :func:`_pace_kernel` takes on the reference host; a pace
#: scale turns measured time into time on that host.
PACE_REFERENCE_S = 1.2e-4

#: Seconds between two timings of the kernel.
PACE_PERIOD_S = 0.02


def _pace_kernel() -> int:
    """Fixed pure-Python work (dict updates, int formatting), ~0.12 ms."""
    table: dict[int, int] = {}
    total = 0
    for i in range(300):
        key = i * 7919 % 97
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class Pace:
    """The speed of the vCPU this interpreter is pinned to, sampled while
    it works.

    Besides steal, each vCPU of the shared host runs up to a third slower
    or faster than the other for seconds at a time, as other guests come
    and go on its physical core.  Pinning the interpreter and timing a
    fixed kernel on a daemon thread every 20 ms (about 1% of the CPU)
    measures that speed on the same core at the same time as the work;
    a kernel run between passes instead tracked it too loosely to help.
    Only single-process workloads can use it: pinning a client and its
    server, or a coordinator and its worker, to one vCPU would stop them
    overlapping.
    """

    def __init__(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PACE_PERIOD_S):
            start = time.monotonic()
            _pace_kernel()
            self.samples.append((start, time.monotonic() - start))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Factor from time measured between two ``time.monotonic()``
        readings to time on the reference host."""
        return pace_scale(self.samples, start, end)


def pace_scale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """The reference kernel time over the median of the ``(start,
    seconds)`` kernel *samples* taken from *start* to *end*, that span
    widened to at least 1 s around its middle."""
    middle = (start + end) / 2
    start, end = min(start, middle - 0.5), max(end, middle + 0.5)
    kernel_s = [seconds for t, seconds in samples if start <= t <= end]
    return PACE_REFERENCE_S / statistics.median(kernel_s)
