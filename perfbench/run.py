"""qhcalc benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload {cli-cold,calculus,spectral}
                             --seed N --seconds S --trace {0,1}

Workloads (each a closed loop with one client; see the module of each):

* ``cli-cold``  fresh interpreters, one CLI subcommand each
  (``cli_cold.py``);
* ``calculus``  warm operator-class calculus in one process
  (``calculus.py``);
* ``spectral``  model operators and spectral checks in one process
  (``spectral.py``).

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics, named alike on every workload:

* ``setup_s``          median of several set-ups before the first timed
                       op (for in-process workloads: cold ``import
                       qhcalc`` plus the workload's set-up);
* ``session_s``        median wall time of one seeded session (the whole
                       command script on ``cli-cold``);
* ``heavy_op_mean_ms`` mean latency of the workload's heavy op:
                       commands that build the depth-2 triple space
                       (``cli-cold``), ops past the integrability
                       pre-check (``calculus``), certificate checks
                       (``spectral``);
* ``heavy_op_p90_ms``  90th percentile of the heavy op;
* ``light_op_mean_ms`` mean latency of every other op;
* ``ops_per_s``        ops per second of session time, rejected ops
                       included;
* ``peak_rss_mb``      peak resident memory (of the children on
                       ``cli-cold``).

Each latency statistic is taken within a session and the median over
sessions is reported (why: see ``common.Sessions``).  Times are plain
wall-clock times.  Lines before the JSON print each workload's own
figures (``heavy_cmd_p50_s``, ``light_cmd_p50_s``, ``compose_p99_ms``,
``check_p90_ms``, ``grid_points_per_s`` ...), the workload mix,
``failed_share`` and every failed op by kind and depth.
With ``--trace 1`` the metrics are the per-layer calls, self times and
ratios of ``spans.py`` plus the tracing overhead.

The benchmark measures ``src/qhcalc`` of the checkout it sits in and
exits with code 2, printing no result, if that package is missing or an
import resolves elsewhere.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import common

common.pin_threads()

WORKLOADS = ("cli-cold", "calculus", "spectral")


def setup_child(workload: str, seed: int, sessions: int) -> dict:
    p = subprocess.run([sys.executable, str(common.BENCH_DIR / "child.py"),
                        "setup", workload, str(seed), str(sessions)],
                       env=common.child_env(), capture_output=True, text=True,
                       timeout=170, cwd=str(common.ROOT))
    if p.returncode != 0:
        raise common.SetupError(f"set-up child failed: {p.stderr[-400:]}")
    data = json.loads(p.stdout.strip().splitlines()[-1])
    common.verify_qhcalc_file(data["qhcalc_file"])
    return data


def in_process(name: str, run, seed: int, seconds: float, trace: bool):
    """Set-up and session loop shared by ``calculus`` and ``spectral``."""
    wl = __import__(name)
    # set-ups in fresh children, then one here; the untraced reference for
    # a traced run does the traced work too
    children = [setup_child(run.workload, seed,
                            wl.TRACE_SESSIONS if trace and i == 0 else 0)
                for i in range(wl.SETUP_SAMPLES - 1)]
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        import qhcalc  # noqa: F401
        tracer.install()
    t0 = perf_counter()
    import qhcalc
    t1 = perf_counter()
    common.verify_qhcalc_file(qhcalc.__file__)
    st = wl.setup(seed)
    t2 = perf_counter()
    setups = [c["setup_s"] for c in children] + [t2 - t0]
    t3 = perf_counter()
    if trace:
        for _ in range(wl.TRACE_SESSIONS):
            wl.session(st, run)
        wall = perf_counter() - t3
        tracer.uninstall()
        ref = children[0]
        spans.layer_metrics(
            run, tracer,
            common.median([c["import_s"] for c in children]), {},
            ref["setup_s"] - ref["import_s"] + ref["ops_s"],
            t2 - t1 + wall)
    else:
        while True:     # whole sessions until the time is up
            wl.session(st, run)
            wall = perf_counter() - t3
            if wall >= seconds:
                break
    wl.report(st, run, wall)
    run.note("set-up samples_s", [round(s, 4) for s in setups])
    run.note("import_s (measuring process)", round(t1 - t0, 4))
    if trace:
        return
    run.metric("setup_s", common.median(setups), "s")
    st.rec.metrics(run)
    run.metric("peak_rss_mb", common.peak_rss_mb(), "MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that subprocess.run kills and reaps its child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = common.Run(args.workload, args.seed)
    try:
        common.use_working_tree()
        if args.workload == "cli-cold":
            import cli_cold
            cli_cold.main(run, args.seed, args.seconds, bool(args.trace))
        else:
            in_process(args.workload, run, args.seed, args.seconds,
                       bool(args.trace))
        import qhcalc
        run.note("qhcalc", qhcalc.__file__)
        run.note("machine", common.machine_info())
    except common.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if common.WORK_DIR.is_dir() and not any(common.WORK_DIR.iterdir()):
            shutil.rmtree(common.WORK_DIR, ignore_errors=True)
    run.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
