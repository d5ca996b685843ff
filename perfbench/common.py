"""Shared pieces of the benchmark: paths, environment, statistics, results.

The benchmark measures the working tree it sits in: ``<root>/src/qhcalc``,
where ``<root>`` is the parent of this directory.  Nothing here imports
``qhcalc`` at module level, so set-up timings start from a cold import.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

# One BLAS/OpenMP thread everywhere: the workloads are single-client loops
# and extra pool threads would only add scheduling noise on a small box.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot measure this checkout (exit code 2)."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    """Environment for child interpreters: pinned threads, ``src`` first."""
    pin_threads()
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def check_tree() -> None:
    if not (SRC / "qhcalc" / "__init__.py").is_file():
        raise SetupError(f"no qhcalc package under {SRC}")


def use_working_tree() -> None:
    """Put the checkout's ``src`` ahead of any installed copy."""
    check_tree()
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def verify_qhcalc_file(path: str) -> str:
    """Refuse a ``qhcalc`` that resolves outside this checkout's ``src``."""
    want = (SRC / "qhcalc").resolve()
    got = Path(path).resolve()
    if got.parent != want:
        raise SetupError(f"qhcalc imported from {got}, expected {want}")
    return str(got)


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS[:3]}}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


class Sessions:
    """Op latencies (ms) by session and class, and each session's wall time.

    A session has a fixed shape: the same op kinds on the same kinds of
    input, with seeded values.  Its ops differ in cost by design, so a
    median over ops falls between two op shapes and jumps from run to run,
    while a mean over a fixed shape does not.  Each latency statistic is
    taken within a session and the run reports its median over sessions.
    """

    def __init__(self):
        self.heavy, self.light, self.wall = [], [], []
        self._t0 = 0.0

    def start(self) -> None:
        self.heavy.append([])
        self.light.append([])
        self._t0 = perf_counter()

    def end(self) -> None:
        self.close(perf_counter() - self._t0)

    def close(self, wall: float) -> None:
        self.wall.append(wall)

    def add(self, heavy: bool, ms: float) -> None:
        (self.heavy if heavy else self.light)[-1].append(ms)

    def metrics(self, run) -> None:
        def over_sessions(f, lists):
            return median([f(s) for s in lists if s])
        ops = [len(h) + len(l) for h, l in zip(self.heavy, self.light)]
        run.metric("session_s", median(self.wall), "s")
        run.metric("heavy_op_mean_ms",
                   over_sessions(statistics.fmean, self.heavy), "ms")
        run.metric("heavy_op_p90_ms",
                   over_sessions(lambda s: percentile(s, 90), self.heavy),
                   "ms")
        run.metric("light_op_mean_ms",
                   over_sessions(statistics.fmean, self.light), "ms")
        run.metric("ops_per_s",
                   median([n / w for n, w in zip(ops, self.wall)]), "1/s")


class Run:
    """Outcome of one benchmark run: op tallies, failures, metrics, report.

    An op *fails* when it raises, exits with an undocumented code, or
    fails its oracle.  ``correct`` turns false only for wrong answers
    (oracle failures), not for crashes, which are counted in ``failed``
    and listed by op kind and tower depth.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []          # (kind, depth, reason, wrong_answer)
        self.metrics = {}
        self.report = []            # (key, value) lines printed before JSON

    def op(self, ok: bool = True, kind: str = "", depth=None,
           reason: str = "", wrong: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((kind, depth, reason, wrong))

    @property
    def correct(self) -> bool:
        return not any(f[3] for f in self.failures)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, key: str, value) -> None:
        self.report.append((key, value))

    def emit(self) -> None:
        out = sys.stdout
        out.write(f"workload {self.workload} seed {self.seed}\n")
        for key, value in self.report:
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            out.write(f"{key}: {value}\n")
        share = len(self.failures) / self.attempted if self.attempted else 0.0
        out.write(f"failed_share: {share:.6f} ({len(self.failures)}/"
                  f"{self.attempted} ops)\n")
        tally = {}
        for kind, depth, reason, wrong in self.failures:
            key = (kind, depth, reason, wrong)
            tally[key] = tally.get(key, 0) + 1
        for (kind, depth, reason, wrong), n in sorted(
                tally.items(), key=lambda kv: repr(kv[0])):
            tag = "WRONG ANSWER" if wrong else "failed"
            out.write(f"  {tag}: {kind} depth {depth}: {reason} (x{n})\n")
        for name, m in self.metrics.items():
            out.write(f"metric {name} = {m['value']:.6g} {m['unit']}\n")
        out.write(json.dumps({"correct": self.correct,
                              "attempted": self.attempted,
                              "failed": len(self.failures),
                              "metrics": self.metrics}, sort_keys=True) + "\n")
        out.flush()
