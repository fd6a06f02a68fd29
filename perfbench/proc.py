"""Running the working tree's `lidkit` CLI as a child process.

The CLI is started as ``sys.executable -m lidkit.cli`` with the checkout's
``src`` on PYTHONPATH, so no installed entry point is needed and the code
measured is the code in the tree.  Each child is reaped with ``os.wait4``,
which gives that child's own peak RSS; ``RUSAGE_CHILDREN`` would be a
running maximum over every child the benchmark ever started.

Linux also folds the spawning process's peak RSS into a child's
``ru_maxrss`` (the parent's address space is the one exec replaces), and
the benchmark process grows to hundreds of MiB while it generates inputs.
So every CLI run is started and reaped by a small helper: this module run
as a script, which reports the run as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one BLAS thread: a 2-core machine shared with other jobs gives steadier
# matvec timings single-threaded, and the CLI is measured as one process
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(min(BLAS_THREADS, os.cpu_count() or 1))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def pin_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU, so that the
    yardstick (see ``calib.py``) times the CPU the CLI runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class CliRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    # (seconds since start, line) for every stderr line, when captured
    stderr_lines: list[tuple[float, str]] = field(default_factory=list)


def run_cli(
    args: list[str],
    stdin_path: str | None = None,
    stdout_path: str | None = None,
    capture_stderr: bool = False,
) -> CliRun:
    """Run ``lidkit <args>`` to completion and time it from spawn to reap.

    With ``capture_stderr`` every stderr line is timestamped as it arrives
    (the CLI's stderr is line-buffered), which is how epoch reports are
    timed.  Otherwise stderr is discarded.  The run happens in the helper
    process described in the module docstring.
    """
    request = json.dumps([args, stdin_path, stdout_path, capture_stderr])
    helper = subprocess.Popen([sys.executable, os.path.abspath(__file__), request],
                              stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = helper.communicate()
    except BaseException:
        helper.terminate()  # the helper kills and reaps its own child
        helper.wait()
        raise
    if helper.returncode != 0:
        raise RuntimeError(f"CLI helper exited {helper.returncode}")
    run = json.loads(out)
    run["stderr_lines"] = [tuple(pair) for pair in run["stderr_lines"]]
    return CliRun(**run)


def _run_here(
    args: list[str],
    stdin_path: str | None,
    stdout_path: str | None,
    capture_stderr: bool,
) -> CliRun:
    cmd = [sys.executable, "-m", "lidkit.cli", *args]
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    lines: list[tuple[float, str]] = []
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            stdin=stdin,
            stdout=stdout,
            stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            if capture_stderr:
                assert proc.stderr is not None
                for raw in proc.stderr:
                    lines.append((time.perf_counter() - t0, raw.decode("utf-8", "replace")))
                proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (stdin, stdout):
            if hasattr(fh, "close"):
                fh.close()
    # Linux reports ru_maxrss in KiB
    return CliRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, lines)


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics every run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports: per-layer when traced."""
    return {m["name"]: m["unit"]
            for m in benchmark_spec()["per_layer" if traced else "end_to_end"]}


def environment() -> dict[str, object]:
    """Versions and machine facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def terminate(signum, frame) -> None:
    """SIGTERM handler: unwind, so that `finally` blocks and the child
    cleanup in :func:`run_cli` run."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    json.dump(dataclasses.asdict(_run_here(*json.loads(sys.argv[1]))), sys.stdout)
