"""Cold `verify_facemaps` probe: time, peak RSS and engine work counts.

Runs one cold verify on the tower of the given depth and prints one JSON
line.  The towers are those of the depth table in ROADMAP.md ("Where
things stand"); depths 2-5 are also the towers of
`test_cold_facemap_verify_work_counts`.  Run it from the repository root,
one depth per fresh process, since the peak is the process's own:

    PYTHONPATH=src python tools/verify_probe.py --depth 4

`time_s` is the in-process wall time of the verify alone, imports
excluded, with the counting wrappers in place.  `peak_rss_mb` is the
process's `ru_maxrss` in MiB.  The counts are calls of `blowup`,
`_fm_feasible` (Fourier-Motzkin runs), `Space.disjoint`,
`Space.separated_by` and `rewrite_step`; they do not depend on the
machine.  The exit code is 1 when the verify reports a mismatch.
"""

import argparse
import json
import resource
import sys
import time

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs

TOWERS = {
    2: asp.Tower(2, (1, 1, 1), 1, (1, 1)),
    3: asp.Tower(3, (1, 1, 1, 1), 1, (1, 1, 1)),
    4: asp.Tower(4, (1, 2, 1, 3, 1), 0, (1, 0, 2, 1)),
    5: asp.Tower(5, (1,) * 6, 0, (1, 0, 1, 0, 1)),
    6: asp.Tower(6, (1,) * 7, 0, (1, 0, 1, 0, 1, 0)),
}

COUNTED = (("blowups", cs, "blowup"), ("fm_runs", cs, "_fm_feasible"),
           ("disjoint", cs.Space, "disjoint"),
           ("separated_by", cs.Space, "separated_by"),
           ("rewrite_step", cs, "rewrite_step"))


def count_calls(counts: dict) -> None:
    """Wrap each counted engine function so that it counts its calls."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner, attr in COUNTED:
        setattr(owner, attr, counted(name, getattr(owner, attr)))
    # a_spaces calls the rewrite step under its own imported name
    asp.rewrite_step = cs.rewrite_step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, required=True, choices=sorted(TOWERS))
    t = TOWERS[ap.parse_args(argv).depth]
    counts = dict.fromkeys((name for name, _, _ in COUNTED), 0)
    count_calls(counts)
    t0 = time.perf_counter()
    report = asp.verify_facemaps(t)
    elapsed = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"depth": t.k, "tower": t.to_json(),
                      "time_s": round(elapsed, 3),
                      "peak_rss_mb": round(peak, 1),
                      "tables": report["tables"],
                      "mismatches": len(report["mismatches"]), **counts}))
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
