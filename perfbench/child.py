"""Child-process entry point: one CLI command, or one timed workload set-up.

    python3 child.py cli META [--trace] -- ARGV...
        Import ``qhcalc`` from the checkout, optionally install the layer
        wrappers, call ``qhcalc.cli.main(ARGV)`` and write the exit code,
        import and main times, the resolved ``qhcalc.__file__`` and any
        span totals to the JSON file META.  Stdout is the command's own.
        (``python -m qhcalc.cli`` is avoided: the package imports ``cli``
        first and runpy warns.)

    python3 child.py setup WORKLOAD SEED SESSIONS
        Time ``import qhcalc`` plus the workload's set-up, then time
        SESSIONS sessions of the seeded stream, and print one JSON line.
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter

import common


def run_cli(meta_path: str, trace: bool, argv: list) -> int:
    common.use_working_tree()
    t0 = perf_counter()
    import qhcalc
    import qhcalc.cli
    import_s = perf_counter() - t0
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    crashed = False
    t1 = perf_counter()
    try:
        code = qhcalc.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None
                                                        else 1)
    except Exception:
        traceback.print_exc()
        crashed, code = True, 1
    main_s = perf_counter() - t1
    sys.stdout.flush()
    with open(meta_path, "w") as fh:
        json.dump({"code": code, "crashed": crashed, "import_s": import_s,
                   "main_s": main_s, "qhcalc_file": qhcalc.__file__,
                   "trace": tracer.dump() if tracer else None}, fh)
    return code


def run_setup(workload: str, seed: int, sessions: int) -> None:
    common.use_working_tree()
    wl = __import__(workload)
    t0 = perf_counter()
    import qhcalc
    import_s = perf_counter() - t0
    state = wl.setup(seed)
    setup_s = perf_counter() - t0
    t1 = perf_counter()
    run = common.Run(workload, seed)
    for _ in range(sessions):
        wl.session(state, run)
    ops_s = perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": setup_s,
                      "ops_s": ops_s,
                      "qhcalc_file": qhcalc.__file__}))


def main(argv) -> int:
    if argv[:1] == ["cli"]:
        sep = argv.index("--")
        return run_cli(argv[1], "--trace" in argv[2:sep], argv[sep + 1:])
    if argv[:1] == ["setup"]:
        run_setup(argv[1], int(argv[2]), int(argv[3]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
