"""Memory held by the replay memo of one cold `verify_facemaps`.

Runs one verify on the tower of the given depth (the towers of
`verify_probe.py`) under `tracemalloc`, inside an outer `replay_scope`,
so that every replayed prefix stays in the memo until the scope exits.
Prints one JSON line.  Run it from the repository root, one depth per
fresh process:

    PYTHONPATH=src python tools/replay_memory_probe.py --depth 5

`held_mb` is the traced memory when the verify has returned and the
scope is still open; `left_mb` is what stays traced after the scope has
exited and a garbage collection has run.  Both count only allocations
made after the imports.  `top` lists the eight source lines holding the
most traced memory inside the scope, with their size in MB, their
block count and the start of their source text.  Tracing slows the
verify several times over and adds its own memory, so use
`verify_probe.py` for time and peak RSS.
"""

import argparse
import gc
import json
import linecache
import os
import sys
import tracemalloc

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs
from verify_probe import TOWERS

MB = 1024 * 1024


def _site(stat, root: str) -> dict:
    path, line = stat.traceback[0].filename, stat.traceback[0].lineno
    return {"site": f"{os.path.relpath(path, root)}:{line}",
            "mb": round(stat.size / MB, 2), "count": stat.count,
            "code": linecache.getline(path, line).strip()[:60]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, required=True, choices=sorted(TOWERS))
    t = TOWERS[ap.parse_args(argv).depth]
    root = os.path.dirname(os.path.dirname(cs.__file__))
    gc.collect()
    tracemalloc.start()
    with cs.replay_scope():
        report = asp.verify_facemaps(t)
        held = tracemalloc.get_traced_memory()[0]
        snap = tracemalloc.take_snapshot()
    gc.collect()
    left = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    top = [_site(s, root) for s in snap.statistics("lineno")[:8]]
    print(json.dumps({"depth": t.k, "tower": t.to_json(),
                      "held_mb": round(held / MB, 1),
                      "left_mb": round(left / MB, 1),
                      "mismatches": len(report["mismatches"]), "top": top}))
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
